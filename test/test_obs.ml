(* Tests for the observability subsystem (lib/obs): the JSON codec, the
   metrics registry, the span tracer, and the VM flight recorder — plus
   the central contract that observability is free when disabled: the
   attack pipeline's observable behaviour (committed outputs, instruction
   counts, rendered reports) is byte-identical whether obs is absent,
   enabled, or the flight recorder is armed. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

let reset_obs () =
  Obs.Trace.disable ();
  Obs.Trace.clear ()

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let samples =
    [
      Obs.Json.Null;
      Obs.Json.Bool true;
      Obs.Json.Int (-42);
      Obs.Json.Str "with \"quotes\", \\backslash\\ and \n newline";
      Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Float 2.5; Obs.Json.Null ];
      Obs.Json.Obj
        [ ("a", Obs.Json.List []); ("b", Obs.Json.Obj [ ("c", Obs.Json.Int 0) ]) ];
    ]
  in
  List.iter
    (fun j ->
      let s = Obs.Json.to_string j in
      check_bool ("roundtrip " ^ s) true (Obs.Json.parse_exn s = j))
    samples;
  (* Floats print with enough digits to re-read exactly. *)
  (match Obs.Json.parse_exn (Obs.Json.to_string (Obs.Json.Float 20.35)) with
  | Obs.Json.Float f -> check (Alcotest.float 1e-9) "float" 20.35 f
  | _ -> Alcotest.fail "float did not parse as float");
  (* Malformed input raises, the non-raising variant reports. *)
  check_bool "parse error" true
    (match Obs.Json.parse "{\"a\": }" with Error _ -> true | Ok _ -> false)

let test_json_member () =
  let j = Obs.Json.parse_exn {| {"traceEvents": [{"name": "x"}], "n": 1} |} in
  (match Obs.Json.member "traceEvents" j with
  | Some l -> (
    match Obs.Json.to_list l with
    | Some [ e ] ->
      check_bool "member of element" true
        (Obs.Json.member "name" e = Some (Obs.Json.Str "x"))
    | _ -> Alcotest.fail "traceEvents should hold one element")
  | None -> Alcotest.fail "traceEvents missing");
  check_bool "absent member" true (Obs.Json.member "zzz" j = None)

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_instruments () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~registry:reg "t_total" in
  Obs.Metrics.inc c;
  Obs.Metrics.add c 4;
  (* Get-or-create: the same (name, labels) yields the same cell. *)
  Obs.Metrics.inc (Obs.Metrics.counter ~registry:reg "t_total");
  check_int "counter" 6 (Obs.Metrics.counter_value c);
  let g = Obs.Metrics.gauge ~registry:reg ~labels:[ ("k", "v") ] "t_gauge" in
  Obs.Metrics.set g 2.5;
  check (Alcotest.float 0.) "gauge" 2.5 (Obs.Metrics.gauge_value g);
  (* Same name, different labels: a distinct time series. *)
  let g2 = Obs.Metrics.gauge ~registry:reg ~labels:[ ("k", "w") ] "t_gauge" in
  check (Alcotest.float 0.) "gauge 2" 0. (Obs.Metrics.gauge_value g2);
  (* Re-registering a name as a different type is a programming error. *)
  check_bool "type clash" true
    (try
       ignore (Obs.Metrics.gauge ~registry:reg "t_total");
       false
     with Invalid_argument _ -> true);
  let h =
    Obs.Metrics.histogram ~registry:reg ~buckets:[| 1.; 10. |] "t_hist"
  in
  Obs.Metrics.observe h 0.5;
  Obs.Metrics.observe h 5.;
  Obs.Metrics.observe h 50.;
  Obs.Metrics.gauge_fn ~registry:reg "t_pull" (fun () -> 7.);
  let samples = Obs.Metrics.snapshot reg in
  (* Deterministic order: sorted by name then labels. *)
  check_bool "snapshot sorted" true
    (let names = List.map (fun s -> s.Obs.Metrics.s_name) samples in
     names = List.sort compare names);
  (match
     List.find_opt (fun s -> s.Obs.Metrics.s_name = "t_hist") samples
   with
  | Some { Obs.Metrics.s_value = Obs.Metrics.Sample_histogram (b, sum, n); _ }
    ->
    check_int "hist count" 3 n;
    check (Alcotest.float 1e-9) "hist sum" 55.5 sum;
    (* Cumulative buckets: ≤1 holds 1, ≤10 holds 2. *)
    check_bool "hist buckets" true
      (List.map snd b = [ 1; 2 ])
  | _ -> Alcotest.fail "histogram sample missing");
  match
    List.find_opt (fun s -> s.Obs.Metrics.s_name = "t_pull") samples
  with
  | Some { Obs.Metrics.s_value = Obs.Metrics.Sample_gauge v; _ } ->
    check (Alcotest.float 0.) "pull gauge polled" 7. v
  | _ -> Alcotest.fail "pull gauge missing"

let test_metrics_exposition () =
  let reg = Obs.Metrics.create () in
  Obs.Metrics.inc
    (Obs.Metrics.counter ~registry:reg ~help:"test counter"
       ~labels:[ ("server", "3") ] "t_requests_total");
  Obs.Metrics.observe
    (Obs.Metrics.histogram ~registry:reg ~buckets:[| 1. |] "t_ms")
    0.5;
  let text = Obs.Metrics.to_prometheus reg in
  let has needle =
    let n = String.length needle and l = String.length text in
    let rec go i = i + n <= l && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "HELP line" true (has "# HELP t_requests_total test counter");
  check_bool "TYPE line" true (has "# TYPE t_requests_total counter");
  check_bool "labelled sample" true (has "t_requests_total{server=\"3\"} 1");
  check_bool "+Inf bucket" true (has "t_ms_bucket{le=\"+Inf\"} 1");
  check_bool "hist sum" true (has "t_ms_sum");
  check_bool "hist count" true (has "t_ms_count 1");
  (* The JSON snapshot must itself parse with our parser. *)
  match
    Obs.Json.member "metrics"
      (Obs.Json.parse_exn (Obs.Json.to_string (Obs.Metrics.to_json reg)))
  with
  | Some l ->
    check_bool "json metrics list" true
      (match Obs.Json.to_list l with Some (_ :: _) -> true | _ -> false)
  | None -> Alcotest.fail "to_json lacks a metrics field"

(* ------------------------------------------------------------------ *)
(* The attack pipeline under three obs configurations                  *)
(* ------------------------------------------------------------------ *)

let compiled = lazy ((Apps.Registry.find "apache1").r_compile ())

(* Everything observable about one full attack/defense cycle. *)
type attack_obs = {
  ao_outputs : (int * string) list;
  ao_icount : int;
  ao_fast : int;
  ao_slow : int;
  ao_block : int;
  ao_table2 : string;
  ao_summary : string;
}

let run_attack_case ~trace ~recorder () =
  reset_obs ();
  if trace then Obs.Trace.enable ();
  let proc = Osim.Process.load ~aslr:true ~seed:42 (Lazy.force compiled) in
  if recorder then
    proc.Osim.Process.flight <-
      Some (Obs.Recorder.attach proc.Osim.Process.cpu);
  let server =
    Osim.Server.create
      ?metrics:(if trace then Some (Obs.Metrics.create ()) else None)
      proc
  in
  ignore (Osim.Server.run server);
  List.iter
    (fun m -> ignore (Osim.Server.handle server m))
    (Apps.Registry.workload ~seed:42 "apache1" 5);
  let exploit =
    Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 "apache1"
  in
  let report = ref None in
  List.iter
    (fun m ->
      match Sweeper.Orchestrator.protected_handle ~app:"apache1" server m with
      | `Attack r -> report := Some r
      | _ -> ())
    exploit.Apps.Exploits.x_messages;
  let r = Option.get !report in
  let cpu = proc.Osim.Process.cpu in
  let out =
    {
      ao_outputs = Osim.Process.committed_outputs proc;
      ao_icount = cpu.Vm.Cpu.icount;
      ao_fast = cpu.Vm.Cpu.fast_retired;
      ao_slow = cpu.Vm.Cpu.slow_retired;
      ao_block = cpu.Vm.Cpu.block_retired;
      ao_table2 = Sweeper.Report.table2_to_string proc r;
      ao_summary = Sweeper.Report.summary r;
    }
  in
  reset_obs ();
  out

(* Enabling the tracer + metrics, or arming the flight recorder, must not
   change anything the pipeline computes: same outputs, same instruction
   counts, byte-identical Table 2. The recorder steers execution through
   the instrumented path, so its tier split differs — but the split
   itself must be conserved: block + fast + slow = instructions retired
   either way. *)
let test_differential () =
  let off = run_attack_case ~trace:false ~recorder:false () in
  let on = run_attack_case ~trace:true ~recorder:false () in
  let rec_on = run_attack_case ~trace:false ~recorder:true () in
  check_bool "outputs: off = on" true (off.ao_outputs = on.ao_outputs);
  check_bool "outputs: off = recorder" true (off.ao_outputs = rec_on.ao_outputs);
  check_int "icount: off = on" off.ao_icount on.ao_icount;
  check_int "icount: off = recorder" off.ao_icount rec_on.ao_icount;
  check_string "table2: off = on" off.ao_table2 on.ao_table2;
  check_string "table2: off = recorder" off.ao_table2 rec_on.ao_table2;
  check_string "summary: off = on" off.ao_summary on.ao_summary;
  (* Tracing alone must not move instructions between tiers. *)
  check_int "fast path untouched by tracing" off.ao_fast on.ao_fast;
  check_int "slow path untouched by tracing" off.ao_slow on.ao_slow;
  check_int "block tier untouched by tracing" off.ao_block on.ao_block;
  (* The recorder forces the instrumented path; retirement is conserved
     across all three tiers. *)
  check_int "retired conserved under recorder"
    (off.ao_block + off.ao_fast + off.ao_slow)
    (rec_on.ao_block + rec_on.ao_fast + rec_on.ao_slow);
  check_bool "recorder ran on the slow path" true
    (rec_on.ao_slow > off.ao_slow)

(* ------------------------------------------------------------------ *)
(* Span well-formedness                                                *)
(* ------------------------------------------------------------------ *)

let is_real f = not (Float.is_nan f)

(* Every event of a trace is well-formed: non-negative wall duration,
   virtual end ≥ virtual begin — except recovery spans, which cross a
   rollback: restoring a checkpoint rewinds the virtual clock, and the
   span records exactly that rewind. *)
let check_events_well_formed evs =
  List.iter
    (fun (e : Obs.Trace.event) ->
      if e.ev_ts_us < 0. then Alcotest.failf "%s: negative ts" e.ev_name;
      if e.ev_dur_us < 0. then Alcotest.failf "%s: negative dur" e.ev_name;
      if
        is_real e.ev_vts_ms && is_real e.ev_vts_end_ms
        && e.ev_vts_end_ms < e.ev_vts_ms
        && e.ev_cat <> "recovery"
      then Alcotest.failf "%s: virtual clock ran backwards" e.ev_name)
    evs

(* Run a few hosts' benign streams interleaved under the scheduler with
   the given quantum and return the trace. *)
let sched_trace quantum =
  reset_obs ();
  Obs.Trace.enable ();
  let sched = Osim.Sched.create ~quantum () in
  let tasks =
    List.map
      (fun (seed, n) ->
        let proc = Osim.Process.load ~aslr:true ~seed (Lazy.force compiled) in
        let server = Osim.Server.create proc in
        ignore (Osim.Server.run server);
        let task = Osim.Sched.add sched server in
        List.iter
          (Osim.Sched.post sched task)
          (Apps.Registry.workload ~seed "apache1" n);
        task)
      [ (2001, 4); (2002, 6); (2003, 3) ]
  in
  Osim.Sched.run sched;
  check_int "benign streams never park" 0 (Osim.Sched.parks sched);
  let evs = Obs.Trace.events () in
  reset_obs ();
  (evs, tasks)

let span_property quantum =
  let evs, tasks = sched_trace quantum in
  check_events_well_formed evs;
  let serves =
    List.filter (fun (e : Obs.Trace.event) -> e.ev_name = "serve") evs
  in
  (* One serve span per delivered message. *)
  let delivered =
    List.fold_left (fun a t -> a + t.Osim.Sched.sk_delivered) 0 tasks
  in
  check_int "serve span per message" delivered (List.length serves);
  (* Per host, the virtual clock stamped on successive serve spans is
     monotone however the quanta sliced the interleaving. *)
  List.iter
    (fun (task : Osim.Sched.task) ->
      let mine =
        List.filter
          (fun (e : Obs.Trace.event) -> e.ev_tid = task.Osim.Sched.sk_id)
          serves
      in
      ignore
        (List.fold_left
           (fun prev (e : Obs.Trace.event) ->
             if is_real e.ev_vts_ms && e.ev_vts_ms < prev then
               Alcotest.failf "task %d: serve vts not monotone"
                 task.Osim.Sched.sk_id;
             if is_real e.ev_vts_end_ms then e.ev_vts_end_ms else prev)
           0. mine))
    tasks;
  true

let test_sched_spans_qcheck =
  QCheck.Test.make ~count:6 ~name:"sched serve spans well-formed"
    QCheck.(int_range 137 4000)
    span_property

(* The attack trace: stage and recovery spans nest inside the attack
   span, and every analysis stage appears. *)
let test_attack_trace_nesting () =
  reset_obs ();
  Obs.Trace.enable ();
  let proc = Osim.Process.load ~aslr:true ~seed:42 (Lazy.force compiled) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  List.iter
    (fun m -> ignore (Osim.Server.handle server m))
    (Apps.Registry.workload ~seed:42 "apache1" 3);
  let exploit =
    Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 "apache1"
  in
  List.iter
    (fun m ->
      ignore (Sweeper.Orchestrator.protected_handle ~app:"apache1" server m))
    exploit.Apps.Exploits.x_messages;
  let evs = Obs.Trace.events () in
  let chrome = Obs.Trace.to_chrome_json () in
  reset_obs ();
  check_events_well_formed evs;
  let find name =
    match
      List.find_opt (fun (e : Obs.Trace.event) -> e.ev_name = name) evs
    with
    | Some e -> e
    | None -> Alcotest.failf "no %s span in the attack trace" name
  in
  let attack = find "attack" in
  let inside (e : Obs.Trace.event) =
    (* Half a microsecond of slack for clock granularity. *)
    let eps = 0.5 in
    e.ev_ts_us >= attack.ev_ts_us -. eps
    && e.ev_ts_us +. e.ev_dur_us <= attack.ev_ts_us +. attack.ev_dur_us +. eps
  in
  List.iter
    (fun (s : Sweeper.Stage.t) ->
      let e = find s.Sweeper.Stage.name in
      check_bool (s.Sweeper.Stage.name ^ " nested in attack") true (inside e))
    [
      Sweeper.Orchestrator.coredump_stage;
      Sweeper.Orchestrator.membug_stage;
      Sweeper.Orchestrator.taint_stage;
      Sweeper.Orchestrator.isolation_stage;
      Sweeper.Orchestrator.slicing_stage;
    ];
  check_bool "recovery nested in attack" true (inside (find "recovery"));
  check_bool "checkpoint span present" true
    (List.exists (fun (e : Obs.Trace.event) -> e.ev_name = "checkpoint") evs);
  (* The Chrome export of this trace parses and carries every event. *)
  (match
     Option.bind
       (Obs.Json.member "traceEvents" (Obs.Json.parse_exn chrome))
       Obs.Json.to_list
   with
  | Some l -> check_int "chrome export carries every event" (List.length evs)
      (List.length l)
  | None -> Alcotest.fail "chrome export lacks traceEvents");
  check_bool "attack has positive duration" true (attack.ev_dur_us > 0.)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

(* The ring must hold exactly the tail of the true retirement stream,
   across message boundaries and across the rollback/recovery of a full
   attack cycle. The reference stream comes from a second, independent
   post-hook on the same CPU. *)
let test_flight_recorder_tail () =
  reset_obs ();
  let proc = Osim.Process.load ~aslr:true ~seed:42 (Lazy.force compiled) in
  let cpu = proc.Osim.Process.cpu in
  let reference = ref [] in
  ignore
    (Vm.Cpu.add_post_hook cpu (fun e ->
         reference :=
           (e.Vm.Event.e_pc, cpu.Vm.Cpu.icount, e.Vm.Event.e_instr)
           :: !reference));
  let r = Obs.Recorder.attach ~capacity:100 cpu in
  proc.Osim.Process.flight <- Some r;
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  List.iter
    (fun m -> ignore (Osim.Server.handle server m))
    (Apps.Registry.workload ~seed:42 "apache1" 3);
  check_int "ring is full" 100 (Obs.Recorder.size r);
  let ring_tuples () =
    List.map
      (fun (rc : Obs.Recorder.record) -> (rc.r_pc, rc.r_icount, rc.r_instr))
      (Obs.Recorder.records r)
  in
  let reference_tail () =
    let rec take n l = if n = 0 then [] else
      match l with [] -> [] | x :: tl -> x :: take (n - 1) tl
    in
    List.rev (take 100 !reference)
  in
  check_bool "ring = reference tail (benign)" true
    (ring_tuples () = reference_tail ());
  (* Now crash, analyze, roll back, recover — the recorder keeps tracking
     the true execution through all of it. *)
  let exploit =
    Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 "apache1"
  in
  let flight_dump = ref None in
  List.iter
    (fun m ->
      match Sweeper.Orchestrator.protected_handle ~app:"apache1" server m with
      | `Attack rep ->
        flight_dump := rep.Sweeper.Orchestrator.a_coredump.Sweeper.Coredump.c_flight
      | _ -> ())
    exploit.Apps.Exploits.x_messages;
  check_bool "ring = reference tail (post-recovery)" true
    (ring_tuples () = reference_tail ());
  (* The crash report captured a dump of the ring as it stood at the
     fault. *)
  (match !flight_dump with
  | Some d -> check_bool "coredump carries the ring dump" true
      (String.length d > 0)
  | None -> Alcotest.fail "coredump did not capture the flight ring");
  (* Detach: the ring freezes while execution continues. *)
  Obs.Recorder.detach r;
  check_bool "detached" true (not (Obs.Recorder.attached r));
  let frozen = ring_tuples () in
  List.iter
    (fun m -> ignore (Osim.Server.handle server m))
    (Apps.Registry.workload ~seed:43 "apache1" 1);
  check_bool "ring frozen after detach" true (frozen = ring_tuples ())

(* ------------------------------------------------------------------ *)
(* Tracer disabled = dead spans                                        *)
(* ------------------------------------------------------------------ *)

let test_disabled_tracer_records_nothing () =
  reset_obs ();
  let sp = Obs.Trace.begin_span ~cat:"x" "dead" in
  Obs.Trace.end_span sp;
  Obs.Trace.instant "dead-instant";
  let y, ms = Obs.Trace.timed "dead-timed" (fun () -> 17) in
  check_int "timed result" 17 y;
  check_bool "timed still measures" true (ms >= 0.);
  check_int "nothing recorded" 0 (Obs.Trace.event_count ())

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "member/to_list" `Quick test_json_member;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "instruments" `Quick test_metrics_instruments;
          Alcotest.test_case "exposition" `Quick test_metrics_exposition;
        ] );
      ( "zero-cost",
        [
          Alcotest.test_case "pipeline differential" `Quick test_differential;
          Alcotest.test_case "disabled tracer" `Quick
            test_disabled_tracer_records_nothing;
        ] );
      ( "spans",
        [
          QCheck_alcotest.to_alcotest test_sched_spans_qcheck;
          Alcotest.test_case "attack trace nesting" `Quick
            test_attack_trace_nesting;
        ] );
      ( "flight-recorder",
        [
          Alcotest.test_case "ring = reference tail" `Quick
            test_flight_recorder_tail;
        ] );
    ]
