(* Per-lane self-time attribution of a traced run.

   A lane is a timeline on which spans nest. The coordinator lane holds
   the harness spans (category "bench") and the cluster's "barrier"
   spans; it is the calling domain. A shard lane holds that shard's
   "window" spans plus every span whose pid is the server id of a host
   placed on the shard. Spans of servers outside any community (serve,
   attack) run on the calling domain and join the coordinator lane.

   A span's self time is its duration minus the union of the spans on
   its lane that lie inside it. The union matters on shard lanes, where
   the cooperative scheduler keeps many "serve" spans open at once. *)

type lane = Coordinator | Shard of int

type span = { name : string; lane : lane; t0 : float; t1 : float }

let lane_of ~shard_of_server (ev : Obs.Trace.event) =
  match (ev.Obs.Trace.ev_cat, ev.Obs.Trace.ev_name) with
  | "bench", _ | "cluster", "barrier" -> Coordinator
  | "cluster", "window" -> Shard ev.Obs.Trace.ev_pid
  | _ -> (
    match Hashtbl.find_opt shard_of_server ev.Obs.Trace.ev_pid with
    | Some s -> Shard s
    | None -> Coordinator)

let spans ~shard_of_server events =
  List.filter_map
    (fun (ev : Obs.Trace.event) ->
      if ev.Obs.Trace.ev_ph <> "X" then None
      else
        Some
          { name = ev.Obs.Trace.ev_name;
            lane = lane_of ~shard_of_server ev;
            t0 = ev.Obs.Trace.ev_ts_us;
            t1 = ev.Obs.Trace.ev_ts_us +. ev.Obs.Trace.ev_dur_us })
    events

let ivs l =
  List.sort compare (List.map (fun s -> (s.t0, s.t1)) l)

(* Disjoint intervals covering the same points, sorted. *)
let merge ivs =
  List.rev
    (List.fold_left
       (fun acc (a, b) ->
         match acc with
         | (ca, cb) :: rest when a <= cb -> (ca, Float.max cb b) :: rest
         | _ -> (a, b) :: acc)
       [] ivs)

(* The parts of [ivs] inside the disjoint sorted intervals [within],
   sorted by start. *)
let clip ivs within =
  List.concat_map
    (fun (a, b) ->
      List.filter_map
        (fun (wa, wb) ->
          let a = Float.max a wa and b = Float.min b wb in
          if a < b then Some (a, b) else None)
        within)
    ivs
  |> List.sort compare

(* Total length of the union of intervals sorted by start. *)
let union_length ivs =
  List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0. (merge ivs)

let by_start l =
  List.sort
    (fun a b ->
      match Float.compare a.t0 b.t0 with
      | 0 -> Float.compare b.t1 a.t1
      | c -> c)
    l

(* Self time (µs) of every span on one lane. *)
let self_times lane_spans =
  let a = Array.of_list (by_start lane_spans) in
  let n = Array.length a in
  Array.to_list
    (Array.mapi
       (fun i s ->
         let rec inside j acc =
           if j >= n || a.(j).t0 >= s.t1 then List.rev acc
           else
             inside (j + 1)
               (if a.(j).t1 <= s.t1 then (a.(j).t0, a.(j).t1) :: acc else acc)
         in
         (s, s.t1 -. s.t0 -. union_length (inside (i + 1) [])))
       a)

type t = {
  self_us : (string * float) list;  (** per span name, all lanes *)
  dur_us : (string * float) list;   (** per span name, all lanes *)
  count : (string * int) list;
  coordinator : (string * float) list;  (** self time per name, coordinator lane *)
  covered_us : float;   (** union of the coordinator lane *)
  serve_union_us : float;
      (** per shard lane, the union of "serve" spans inside that lane's
          windows, summed: a message's serve span stays open while other
          shards run, so it is clipped to its own shard's windows *)
  wait_us : float;
      (** the parts of "run_round" covered by no window and no barrier *)
}

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let to_sorted tbl = List.sort compare (List.of_seq (Hashtbl.to_seq tbl))

let compute ~shard_of_server events =
  let all = spans ~shard_of_server events in
  let lanes = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace lanes s.lane
        (s :: Option.value ~default:[] (Hashtbl.find_opt lanes s.lane)))
    all;
  let self = Hashtbl.create 32 and dur = Hashtbl.create 32 in
  let count = Hashtbl.create 32 and coord = Hashtbl.create 32 in
  let covered = ref 0. and serve_union = ref 0. in
  Hashtbl.iter
    (fun lane l ->
      List.iter
        (fun (s, st) ->
          add self s.name st;
          add dur s.name (s.t1 -. s.t0);
          Hashtbl.replace count s.name
            (1 + Option.value ~default:0 (Hashtbl.find_opt count s.name));
          if lane = Coordinator then add coord s.name st)
        (self_times l);
      let named n = List.filter (fun s -> s.name = n) l in
      if lane = Coordinator then covered := union_length (ivs l);
      serve_union :=
        !serve_union
        +. union_length (clip (ivs (named "serve")) (merge (ivs (named "window")))))
    lanes;
  let cluster =
    ivs (List.filter (fun s -> s.name = "window" || s.name = "barrier") all)
  in
  let wait =
    List.fold_left
      (fun acc r ->
        if r.name <> "run_round" then acc
        else acc +. (r.t1 -. r.t0 -. union_length (clip cluster [ (r.t0, r.t1) ])))
      0. all
  in
  {
    self_us = to_sorted self;
    dur_us = to_sorted dur;
    count = List.sort compare (List.of_seq (Hashtbl.to_seq count));
    coordinator =
      List.sort (fun (_, a) (_, b) -> Float.compare b a) (to_sorted coord);
    covered_us = !covered;
    serve_union_us = !serve_union;
    wait_us = wait;
  }
