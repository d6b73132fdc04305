(* One benchmark run: run the workload, turn what it measured into the
   declared metrics, and print them.

   Untraced (--trace 0), a run reports the end-to-end metrics. Traced
   (--trace 1), it spends the first half of its budget untraced and the
   second half with Obs.Trace on, and reports the per-layer metrics: the
   work counters and the self time of every layer from the lane
   attribution of the traced half, each per unit of work (a serve
   session, an attack round, a community trial), plus what tracing cost
   against the untraced half. *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  summary : Stats.summary option;  (** when the value is a median of samples *)
}

type result = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  attempted : int;
  failed : int;  (** operations that failed a check *)
  failures : string list;  (** why: one message per failed check or rule *)
  metrics : metric list;
  counters : (string * int) list;  (** per unit of work *)
  units : int;  (** complete units the counters were asserted equal over *)
  details : (string * string * float) list;
  coordinator : (string * float) list;  (** traced: self ms per span name *)
}

let correct r = r.failed = 0 && r.failures = []

let of_samples name unit_ l =
  let s = Stats.summarize l in
  { name; unit_; value = s.Stats.median; summary = Some s }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

let units (ph : Workloads.phase) = ph.Workloads.units

let end_to_end (ph : Workloads.phase) =
  let per_unit f = List.map f (units ph) in
  [ of_samples "setup_s" "s" (per_unit (fun u -> u.Workloads.setup_s));
    { name = "heap_peak_mb"; unit_ = "MB"; value = heap_peak_mb (); summary = None };
    of_samples "benign_req_per_s" "req/s"
      (per_unit (fun u -> float_of_int u.Workloads.benign /. u.Workloads.benign_s));
    { name = "response_p50_ms"; unit_ = "ms";
      value = ph.Workloads.response.Stats.median;
      summary = Some ph.Workloads.response } ]

(* Every unit of a run must have done exactly the same work. *)
let unit_counters (units : Workloads.unit_result list) =
  match units with
  | [] -> ([], [])
  | first :: rest ->
    let first = first.Workloads.counters in
    let differing =
      List.filter_map
        (fun (name, v) ->
          if
            List.for_all
              (fun u -> List.assoc_opt name u.Workloads.counters = Some v)
              rest
          then None
          else Some name)
        first
    in
    ( first,
      if differing = [] then []
      else
        [ "work counters differ between units of one run: "
          ^ String.concat ", " differing ] )

(* A counter summed over a phase's units. *)
let total (ph : Workloads.phase) name =
  List.fold_left
    (fun acc u ->
      acc +. float_of_int (Option.value ~default:0 (List.assoc_opt name u.Workloads.counters)))
    0. (units ph)

let ratio a b = if b = 0. then 0. else a /. b

(* The per-layer metrics, in declaration order: name, unit, value. Counts
   and times are per unit of work, so builds that complete different
   numbers of units in the budget compare directly. *)
let per_layer ~(untraced : Workloads.phase) ~(traced : Workloads.phase)
    ~(attr : Attribution.t) ~wall_s ~(gc0 : Gc.stat) ~(gc1 : Gc.stat) ~spans =
  let n = float_of_int (max 1 (List.length (units traced))) in
  let per_unit x = x /. n in
  let count name = per_unit (total traced name) in
  let find l name = Option.value ~default:0. (List.assoc_opt name l) in
  let self name = find attr.Attribution.self_us name /. 1000. in
  let dur name = find attr.Attribution.dur_us name /. 1000. in
  let n_spans name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name attr.Attribution.count))
  in
  let stage_span k = fst (List.find (fun (_, k') -> k' = k) Workloads.stage_keys) in
  let setup_total =
    List.fold_left (fun acc u -> acc +. u.Workloads.setup_s) 0. (units untraced)
  in
  let primary (ph : Workloads.phase) = ph.Workloads.response.Stats.median in
  [ ("vm.instructions", "count", count "vm.instructions");
    ("vm.block_pct", "%",
     100. *. ratio (count "vm.block_instructions") (count "vm.instructions"));
    ("vm.slow_pct", "%",
     100. *. ratio (count "vm.slow_instructions") (count "vm.instructions"));
    ("vm.ns_per_instr", "ns",
     1e9 *. ratio (untraced.Workloads.wall_s -. setup_total)
              (total untraced "vm.instructions"));
    ("vm.cow_pages", "count", count "vm.cow_pages");
    ("vm.mapped_pages_per_host", "pages",
     ratio (count "vm.mapped_pages") (count "hosts"));
    ("osim.checkpoints", "count", count "osim.checkpoints");
    ("osim.checkpoint_ms", "ms", per_unit (self "checkpoint"));
    ("minic.compile_ms", "ms", per_unit (self "compile"));
    ("osim.load_ms", "ms", per_unit (self "load"));
    ("sched.instructions", "count", count "sched.instructions");
    ("sched.turns", "count", count "sched.turns");
    ("sched.parks", "count", count "sched.parks");
    ("sched.serve_ms", "ms", per_unit (attr.Attribution.serve_union_us /. 1000.));
    ("cluster.windows", "count", count "cluster.windows");
    ("cluster.exchanged", "count", count "cluster.exchanged");
    ("cluster.deferred", "count", count "cluster.deferred");
    ("cluster.window_ms", "ms", per_unit (dur "window"));
    ("cluster.barrier_ms", "ms", per_unit (dur "barrier"));
    ("cluster.wait_ms", "ms", per_unit (attr.Attribution.wait_us /. 1000.)) ]
  @ List.concat_map
      (fun (_, k) ->
        [ ("stage." ^ k ^ ".ms", "ms", per_unit (self (stage_span k)));
          ("stage." ^ k ^ ".instructions", "count",
           count ("stage." ^ k ^ ".instructions")) ])
      Workloads.stage_keys
  @ [ ("orchestrator.finish_ms", "ms", per_unit (self "attack"));
      ("recovery.ms", "ms", per_unit (self "recovery"));
      ("recovery.count", "count", per_unit (n_spans "recovery"));
      ("defense.create_ms", "ms", per_unit (dur "community_create"));
      ("defense.create_us_per_host", "us",
       1000. *. ratio (per_unit (dur "community_create")) (count "hosts"));
      ("defense.post_traffic_ms", "ms", per_unit (dur "post_traffic"));
      ("defense.attempts", "count", count "defense.attempts");
      ("defense.crashes", "count", count "defense.crashes");
      ("defense.blocked", "count", count "defense.blocked");
      ("defense.analyses", "count", count "defense.analyses");
      ("defense.adoptions", "count", count "defense.adoptions");
      ("defense.rejected", "count", count "defense.rejected");
      ("gc.minor_mwords", "Mwords",
       per_unit ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6));
      ("gc.promoted_mwords", "Mwords",
       per_unit ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. 1e6));
      ("gc.major_collections", "count",
       per_unit (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)));
      ("obs.spans", "count", per_unit (float_of_int spans));
      ("obs.trace_overhead_pct", "%",
       100. *. (ratio (primary traced) (primary untraced) -. 1.));
      ("trace.unattributed_pct", "%",
       100. *. (1. -. (attr.Attribution.covered_us /. (wall_s *. 1e6)))) ]

let run ?trace_out ~workload ~seed ~seconds ~smoke ~traced () =
  let f = List.assoc workload Workloads.all in
  (* Smoke runs check names and outputs only, so they skip the warm-up. *)
  let cfg ~warmup secs =
    { Workloads.seed; seconds = secs; smoke; warmup = warmup && not smoke }
  in
  (* The phases' units, untraced and traced alike, must all match. *)
  let finish phases ?(coordinator = []) ?(extra_failures = []) metrics =
    let all_units = List.concat_map units phases in
    let counters, unit_failures = unit_counters all_units in
    let sum f = List.fold_left (fun acc ph -> acc + f ph) 0 phases in
    {
      workload; seed; seconds; traced; metrics; counters; coordinator;
      attempted = sum (fun ph -> ph.Workloads.attempted);
      failed = sum (fun ph -> ph.Workloads.failed);
      failures =
        List.concat_map (fun ph -> ph.Workloads.failures) phases
        @ unit_failures @ extra_failures;
      units = List.length all_units;
      details = (List.hd (List.rev phases)).Workloads.details;
    }
  in
  if not traced then
    let ph = f (cfg ~warmup:true seconds) in
    finish [ ph ] (end_to_end ph)
  else begin
    (* The untraced half warms the process up for the traced half. *)
    let untraced = f (cfg ~warmup:true (seconds /. 2.)) in
    let gc0 = Gc.quick_stat () in
    Obs.Trace.enable ();
    Obs.Trace.clear ();
    let t0 = Stats.now () in
    let traced_ph = f (cfg ~warmup:false (seconds /. 2.)) in
    let wall_s = Stats.now () -. t0 in
    Obs.Trace.disable ();
    let gc1 = Gc.quick_stat () in
    let events = Obs.Trace.events () in
    Option.iter Obs.Trace.write trace_out;
    let attr =
      Attribution.compute ~shard_of_server:traced_ph.Workloads.shard_of_server
        events
    in
    let metrics =
      List.map
        (fun (name, unit_, value) -> { name; unit_; value; summary = None })
        (per_layer ~untraced ~traced:traced_ph ~attr ~wall_s ~gc0 ~gc1
           ~spans:(List.length events))
    in
    let unattributed =
      (List.find (fun m -> m.name = "trace.unattributed_pct") metrics).value
    in
    finish [ untraced; traced_ph ] metrics
      ~coordinator:
        (List.map (fun (n, us) -> (n, us /. 1000.)) attr.Attribution.coordinator)
      ~extra_failures:
        (if Float.abs unattributed > 5. then
           [ Printf.sprintf
               "coordinator lane attributes only %.1f%% of the traced wall"
               (100. -. unattributed) ]
         else [])
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print r =
  Printf.printf "%s: seed %d, %.1f s budget, tracing %s\n" r.workload r.seed
    r.seconds (if r.traced then "on (second half)" else "off");
  List.iter
    (fun m ->
      Printf.printf "  %-34s %14.6g %-6s%s\n" m.name m.value m.unit_
        (match m.summary with
        | Some s when s.Stats.n > 1 ->
          Printf.sprintf "  median of %d [p25 %.6g, p75 %.6g]" s.Stats.n
            s.Stats.p25 s.Stats.p75
        | _ -> ""))
    r.metrics;
  List.iter
    (fun (name, unit_, v) -> Printf.printf "  %-34s %14.6g %s\n" name v unit_)
    r.details;
  if r.counters <> [] then begin
    Printf.printf "  work per unit (identical across %d complete units):\n"
      r.units;
    List.iter (fun (k, v) -> Printf.printf "    %-32s %d\n" k v) r.counters
  end;
  if r.coordinator <> [] then begin
    Printf.printf "  coordinator lane, self time per span (ms):\n";
    List.iter (fun (k, v) -> Printf.printf "    %-32s %12.3f\n" k v) r.coordinator
  end;
  Printf.printf "  operations checked: %d attempted, %d failed\n" r.attempted
    r.failed;
  List.iter (fun f -> Printf.printf "  FAILED: %s\n" f) r.failures

let value_json ?summary value unit_ =
  Obs.Json.Obj
    ([ ("value", Obs.Json.Float value); ("unit", Obs.Json.Str unit_) ]
    @
    match summary with
    | Some s ->
      [ ("p25", Obs.Json.Float s.Stats.p25); ("p75", Obs.Json.Float s.Stats.p75);
        ("n", Obs.Json.Int s.Stats.n) ]
    | None -> [])

(* The summary printed as the last line of stdout. With [full],
   the record [compare] reads: the summary plus the run's identity, each
   median's quartiles, the work counters, the details and, when traced,
   the coordinator lane's self times. *)
let to_json ~full r =
  let open Obs.Json in
  let metric m =
    (m.name, value_json ?summary:(if full then m.summary else None) m.value m.unit_)
  in
  Obj
    ((if full then
        [ ("workload", Str r.workload); ("seed", Int r.seed);
          ("seconds", Float r.seconds); ("trace", Bool r.traced) ]
      else [])
    @ [ ("correct", Bool (correct r));
        ("attempted", Int (max 1 r.attempted));
        ("failed", Int r.failed);
        ("metrics", Obj (List.map metric r.metrics)) ]
    @
    if full then
      [ ("failures", List (List.map (fun s -> Str s) r.failures));
        ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) r.counters));
        ("details",
         Obj (List.map (fun (k, u, v) -> (k, value_json v u)) r.details));
        ("coordinator_self_ms",
         Obj (List.map (fun (k, v) -> (k, Float v)) r.coordinator)) ]
    else [])
