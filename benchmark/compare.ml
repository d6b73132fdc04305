(* The regression gate: set A (baseline) against set B (change), per
   (end-to-end metric, workload) pair.

   - Regression: B's median is worse than A's by more than the metric's
     bound (a share of A's median), or B fails a larger share of its
     attempted operations, or a B run failed its correctness checks.
   - Gain: over at least 10 index-paired runs, B wins at least 9 in 10
     (ties count for neither side) and the medians differ by more than
     A's IQR.
   - Unresolved: neither, and one side's spread (IQR over median)
     exceeds the bound, so "within bound" cannot be claimed -- unless
     every B run beats every A run.
   - Within bound otherwise. *)

type run = {
  workload : string;
  seed : int;
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
  counters : (string * int) list;
}

let ( let* ) = Result.bind

let run_of_json j =
  let get k = Obs.Json.member k j in
  let int_of = function
    | Some (Obs.Json.Int i) -> Ok i
    | Some (Obs.Json.Float f) -> Ok (int_of_float f)
    | _ -> Error "expected an integer"
  in
  let pairs = function
    | Some (Obs.Json.Obj kv) -> kv
    | _ -> []
  in
  let* workload =
    match get "workload" with
    | Some (Obs.Json.Str w) -> Ok w
    | _ -> Error "missing workload"
  in
  let* seed = int_of (get "seed") in
  let* attempted = int_of (get "attempted") in
  let* failed = int_of (get "failed") in
  let correct = get "correct" = Some (Obs.Json.Bool true) in
  let values =
    List.filter_map
      (fun (k, v) ->
        match Obs.Json.member "value" v with
        | Some (Obs.Json.Float f) -> Some (k, f)
        | Some (Obs.Json.Int i) -> Some (k, float_of_int i)
        | _ -> None)
      (pairs (get "metrics"))
  in
  let counters =
    List.filter_map
      (fun (k, v) -> match v with Obs.Json.Int i -> Some (k, i) | _ -> None)
      (pairs (get "counters"))
  in
  Ok { workload; seed; correct; attempted; failed; values; counters }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
    match Obs.Json.parse s with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok j -> Result.map_error (fun e -> path ^ ": " ^ e) (run_of_json j))

type verdict = Regression | Unresolved | Gain | Within_bound

let verdict_name = function
  | Regression -> "REGRESSION"
  | Unresolved -> "unresolved"
  | Gain -> "gain"
  | Within_bound -> "within bound"

let take n l = List.filteri (fun i _ -> i < n) l

(* [better x y]: x reads strictly better than y. *)
let better_than (dir : Spec.better) x y =
  match dir with Spec.Lower -> x < y | Spec.Higher -> x > y

let judge ~(better : Spec.better) ~bound a b =
  let ma = Stats.median a and mb = Stats.median b in
  let worse_share =
    if ma = 0. then 0.
    else
      match better with
      | Spec.Lower -> (mb -. ma) /. Float.abs ma
      | Spec.Higher -> (ma -. mb) /. Float.abs ma
  in
  let b_beats_all =
    List.for_all (fun y -> List.for_all (fun x -> better_than better y x) a) b
  in
  let pairs = List.combine (take (List.length b) a) (take (List.length a) b) in
  let wins =
    List.length (List.filter (fun (x, y) -> better_than better y x) pairs)
  in
  let q1, q3 = Stats.quartiles a in
  if worse_share > bound then Regression
  else if
    better_than better mb ma
    && List.length pairs >= 10
    && 10 * wins >= 9 * List.length pairs
    && Float.abs (mb -. ma) > q3 -. q1
  then Gain
  else if Float.max (Stats.spread a) (Stats.spread b) > bound && not b_beats_all
  then Unresolved
  else Within_bound

type row = {
  r_workload : string;
  r_metric : string;
  r_unit : string;
  r_a : Stats.summary;
  r_b : Stats.summary;
  r_bound : float;
  r_verdict : verdict;
}

type report = {
  rows : row list;
  failures : (string * string) list;  (** workload, why *)
  counter_notes : (string * string) list;  (** workload, note *)
}

let share_failed runs =
  let att = List.fold_left (fun a r -> a + r.attempted) 0 runs in
  let f = List.fold_left (fun a r -> a + r.failed) 0 runs in
  if att = 0 then 0. else float_of_int f /. float_of_int att

let uniq l = List.sort_uniq compare l

let compare_sets (spec : Spec.t) a b =
  let workloads = uniq (List.map (fun r -> r.workload) (a @ b)) in
  let of_w w l = List.filter (fun r -> r.workload = w) l in
  let rows =
    List.concat_map
      (fun w ->
        let ra = of_w w a and rb = of_w w b in
        List.filter_map
          (fun (m : Spec.metric) ->
            let vals l = List.filter_map (fun r -> List.assoc_opt m.Spec.name r.values) l in
            match (vals ra, vals rb, m.Spec.bound) with
            | (_ :: _ as va), (_ :: _ as vb), Some bound ->
              Some
                { r_workload = w; r_metric = m.Spec.name; r_unit = m.Spec.unit_;
                  r_a = Stats.summarize va; r_b = Stats.summarize vb;
                  r_bound = bound;
                  r_verdict = judge ~better:m.Spec.better ~bound va vb }
            | _ -> None)
          spec.Spec.end_to_end)
      workloads
  in
  let failures =
    List.concat_map
      (fun w ->
        let ra = of_w w a and rb = of_w w b in
        (if List.exists (fun r -> not r.correct) rb then
           [ (w, "a run of set B failed its correctness checks") ]
         else [])
        @
        let fa = share_failed ra and fb = share_failed rb in
        if rb <> [] && fb > fa then
          [ (w, Printf.sprintf "failure share rose from %.4f%% to %.4f%%"
                  (100. *. fa) (100. *. fb)) ]
        else [])
      workloads
  in
  (* Work counters are deterministic per (workload, seed): any difference
     between runs is a change in the work done, not noise. *)
  let counter_notes =
    List.filter_map
      (fun (w, seed) ->
        let sets =
          List.filter (fun r -> r.workload = w && r.seed = seed) (a @ b)
          |> List.map (fun r -> List.sort compare r.counters)
          |> uniq
        in
        match sets with
        | [] | [ _ ] -> None
        | _ ->
          let names =
            uniq (List.concat_map (List.map fst) sets)
            |> List.filter (fun n ->
                   List.length (uniq (List.map (List.assoc_opt n) sets)) > 1)
          in
          Some
            ( w,
              Printf.sprintf "seed %d: work counters differ between runs: %s"
                seed (String.concat ", " names) ))
      (uniq (List.map (fun r -> (r.workload, r.seed)) (a @ b)))
  in
  { rows; failures; counter_notes }

let regressed r =
  r.failures <> [] || List.exists (fun row -> row.r_verdict = Regression) r.rows

let print r =
  Printf.printf "%-11s %-18s %30s %30s %8s %6s  %s\n" "workload" "metric"
    "A median [p25, p75] n" "B median [p25, p75] n" "change" "bound" "verdict";
  let cell (s : Stats.summary) =
    Printf.sprintf "%.4g [%.4g, %.4g] %d" s.Stats.median s.Stats.p25 s.Stats.p75
      s.Stats.n
  in
  List.iter
    (fun row ->
      let change =
        if row.r_a.Stats.median = 0. then 0.
        else 100. *. (row.r_b.Stats.median /. row.r_a.Stats.median -. 1.)
      in
      Printf.printf "%-11s %-18s %30s %30s %+7.2f%% %5.0f%%  %s\n" row.r_workload
        (row.r_metric ^ " (" ^ row.r_unit ^ ")") (cell row.r_a) (cell row.r_b)
        change (100. *. row.r_bound) (verdict_name row.r_verdict))
    r.rows;
  List.iter (fun (w, why) -> Printf.printf "%s: FAILURE: %s\n" w why) r.failures;
  List.iter (fun (w, note) -> Printf.printf "%s: %s\n" w note) r.counter_notes;
  let count v = List.length (List.filter (fun row -> row.r_verdict = v) r.rows) in
  Printf.printf "%d regression(s), %d unresolved, %d gain(s), %d within bound%s\n"
    (count Regression) (count Unresolved) (count Gain) (count Within_bound)
    (if r.failures = [] then "" else ", failure checks failed")
