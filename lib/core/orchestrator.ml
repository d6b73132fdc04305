(** The end-to-end Sweeper defense process of the paper's Figure 3:
    lightweight monitoring trips → rollback → staged heavyweight analysis
    (memory state → memory bugs → taint → input isolation → slicing) →
    antibody generation → recovery.

    Each analysis is a {!Stage.t} replaying from the same checkpoint with
    different instrumentation; {!handle_attack} is a declarative list of
    them folded over a shared {!Stage.ctx}, so policies (sampling,
    per-stage skipping, escalation) manipulate the list rather than the
    code. Replay mechanics live in {!Stage.Replay} alone. *)

module Int_set = Stage.Int_set

type stage_timing = Stage.timing = {
  st_name : string;
  st_wall_ms : float;      (** measured harness time for the stage *)
  st_instructions : int;   (** dynamic instructions monitored *)
}

type report = {
  a_app : string;
  a_fault : Vm.Event.fault;
  a_coredump : Coredump.report;
  a_membug : Membug.report;
  a_taint : Taint.result;
  a_isolation : int list;  (** message ids reproducing the crash *)
  a_isolation_stream : bool;
      (** true when only the full suspect stream reproduces it (stateful
          exploits like the CVS double free) *)
  a_slice : Slice.summary;
  a_slice_verifies : bool;  (** every blamed pc is inside the slice *)
  a_vsefs : Vsef.t list;    (** initial + refined + taint, in order found *)
  a_signature : Signature.t option;
  a_antibody : Antibody.t;
  a_timings : stage_timing list;
  a_time_to_first_vsef_ms : float;
  a_time_to_best_vsef_ms : float;
  a_initial_analysis_ms : float;  (** VSEFs + exploit input isolated *)
  a_total_ms : float;
}

(* Milestones the report's headline timings are read from. *)
let mark_first_vsef = "first-vsef"
let mark_best_vsef = "best-vsef"
let mark_initial_analysis = "initial-analysis"

(* --- Stage 1: memory-state analysis (no rollback needed) --------------- *)
let coredump_stage =
  {
    Stage.name = "Memory State Analysis";
    run =
      (fun cx ->
        let r = Coredump.analyze (Stage.proc cx) cx.Stage.cx_fault in
        let initial =
          match r.Coredump.c_vsef with
          | Some v -> [ { v with Vsef.v_app = cx.Stage.cx_app } ]
          | None -> []
        in
        let cx = { cx with Stage.cx_coredump = Some r } in
        Stage.mark (Stage.add_vsefs cx initial) mark_first_vsef);
    instructions = (fun _ -> 0);
  }

(* --- Stage 2: memory-bug detection ------------------------------------- *)
let membug_stage =
  {
    Stage.name = "Memory Bug Detection";
    run =
      (fun cx ->
        let r =
          Stage.Replay.analyze cx
            (Membug.run ~fuel:Stage.Replay.analysis_fuel)
        in
        let refined =
          List.filter_map
            (Membug.vsef_of_finding ~app:cx.Stage.cx_app ~proc:(Stage.proc cx))
            (List.sort_uniq compare r.Membug.m_findings)
        in
        let cx = { cx with Stage.cx_membug = Some r } in
        Stage.mark (Stage.add_vsefs cx refined) mark_best_vsef);
    instructions =
      (fun cx ->
        match cx.Stage.cx_membug with
        | Some r -> r.Membug.m_instructions
        | None -> 0);
  }

(* --- Stage 3: dynamic taint analysis ----------------------------------- *)
let taint_stage =
  {
    Stage.name = "Input/Taint Analysis";
    run =
      (fun cx ->
        let r =
          Stage.Replay.analyze cx (Taint.run ~fuel:Stage.Replay.analysis_fuel)
        in
        let vsef =
          Taint.vsef_of_result ~app:cx.Stage.cx_app ~proc:(Stage.proc cx) r
        in
        let cx = { cx with Stage.cx_taint = Some r } in
        Stage.add_vsefs cx (Option.to_list vsef));
    instructions =
      (fun cx ->
        match cx.Stage.cx_taint with
        | Some r -> r.Taint.t_instructions
        | None -> 0);
  }

(* --- Stage 4: input isolation (suspects one at a time) ------------------ *)
let isolation_stage =
  {
    Stage.name = "Input Isolation";
    run =
      (fun cx ->
        let taint_msgs =
          match cx.Stage.cx_taint with
          | Some t -> Taint.verdict_msgs t.Taint.t_verdict
          | None -> []
        in
        let result =
          match taint_msgs with
          | _ :: _ -> (taint_msgs, false)  (* taint already isolated the input *)
          | [] ->
            let suspects = cx.Stage.cx_suspects in
            let all = Int_set.of_list suspects in
            let alone =
              List.filter
                (fun m -> Stage.Replay.crashes ~skip:(Int_set.remove m all) cx)
                suspects
            in
            if alone <> [] then (alone, false)
            else if not (Stage.Replay.crashes cx) then ([], false)
            else begin
              (* Only a stream reproduces it (stateful exploit). Minimize
                 it greedily: drop each message whose absence keeps the
                 crash. *)
              let keep = ref all in
              List.iter
                (fun m ->
                  let candidate = Int_set.remove m !keep in
                  if Stage.Replay.crashes ~skip:(Int_set.diff all candidate) cx
                  then keep := candidate)
                suspects;
              (Int_set.elements !keep, true)
            end
        in
        Stage.mark
          { cx with Stage.cx_isolation = Some result }
          mark_initial_analysis);
    instructions = (fun _ -> 0);
  }

(* --- Stage 5: dynamic backward slicing ---------------------------------- *)
let slicing_stage =
  {
    Stage.name = "Dynamic Slicing";
    run =
      (fun cx ->
        let r =
          Stage.Replay.analyze cx
            (Slice.run ~fuel:Stage.Replay.analysis_fuel
               ~window:cx.Stage.cx_window)
        in
        { cx with Stage.cx_slice = Some r });
    instructions =
      (fun cx ->
        match cx.Stage.cx_slice with
        | Some r -> r.Slice.sl_instructions
        | None -> 0);
  }

let default_stages =
  [ coredump_stage; membug_stage; taint_stage; isolation_stage; slicing_stage ]

(** Cross-check the stage products, assemble the antibody, and (by
    default) recover the server. Stages that did not run contribute
    neutral products: empty findings, [No_fault] taint, a vacuously
    verifying slice. *)
let finish ?(recover = true) (cx : Stage.ctx) : report =
  let proc = Stage.proc cx in
  let net = proc.Osim.Process.net in
  let app = cx.Stage.cx_app in
  let coredump =
    match cx.Stage.cx_coredump with
    | Some r -> r
    | None ->
      {
        Coredump.c_fault = cx.Stage.cx_fault;
        c_crash_pc = cx.Stage.cx_crash_pc;
        c_crash_fn = None;
        c_caller_fn = None;
        c_stack_consistent = true;
        c_heap_consistent = true;
        c_diagnosis = Coredump.Unclassified;
        c_vsef = None;
        c_summary = "memory-state analysis skipped";
        c_flight = None;
      }
  in
  let membug =
    match cx.Stage.cx_membug with
    | Some r -> r
    | None -> { Membug.m_findings = []; m_fault = None; m_instructions = 0 }
  in
  let taint =
    match cx.Stage.cx_taint with
    | Some r -> r
    | None ->
      { Taint.t_verdict = Taint.No_fault; t_prop_pcs = []; t_instructions = 0 }
  in
  let isolation, stream_only =
    Option.value ~default:([], false) cx.Stage.cx_isolation
  in
  let slice =
    match cx.Stage.cx_slice with
    | Some r -> r.Slice.sl_summary
    | None ->
      {
        Slice.s_nodes = 0;
        s_slice_size = 0;
        s_pcs = Int_set.empty;
        s_msgs = Int_set.empty;
        s_fault_pc = cx.Stage.cx_crash_pc;
      }
  in
  (* Cross-check every blamed instruction against the slice (vacuous when
     the slicing stage did not run). *)
  let blamed_pcs =
    List.map Membug.finding_pc membug.Membug.m_findings
    @ (match coredump.Coredump.c_diagnosis with
      | Coredump.Null_dereference | Coredump.Stack_smash_suspected
      | Coredump.Heap_overflow_suspected | Coredump.Double_free_suspected ->
        [ coredump.Coredump.c_crash_pc ]
      | Coredump.Unclassified -> [])
  in
  let slice_verifies =
    match cx.Stage.cx_slice with
    | Some _ -> List.for_all (Slice.verifies slice) blamed_pcs
    | None -> true
  in
  (* --- Antibody assembly ------------------------------------------------ *)
  let initial_vsefs =
    match coredump.Coredump.c_vsef with
    | Some v -> [ { v with Vsef.v_app = app } ]
    | None -> []
  in
  let refined_vsefs =
    List.filter_map (Membug.vsef_of_finding ~app ~proc)
      (List.sort_uniq compare membug.Membug.m_findings)
  in
  let taint_vsef = Taint.vsef_of_result ~app ~proc taint in
  let responsible_payloads =
    List.map
      (fun id -> (Osim.Netlog.message net id).Osim.Netlog.m_payload)
      isolation
  in
  let signature =
    match responsible_payloads with
    | [] -> None
    | [ one ] when not stream_only -> Some (Signature.exact one)
    | stream -> Some (Signature.exact (String.concat "" stream))
  in
  let antibody =
    let base =
      match initial_vsefs with
      | v :: _ -> Antibody.initial ~app v
      | [] -> (
        match refined_vsefs with
        | v :: _ -> Antibody.initial ~app v
        | [] ->
          { Antibody.ab_app = app; ab_stage = Antibody.Initial; ab_vsefs = [];
            ab_signature = None; ab_exploit_input = None })
    in
    let refined = Antibody.refine base refined_vsefs in
    match signature with
    | Some s ->
      Antibody.complete refined ?taint_vsef ~signature:s
        ~exploit_input:responsible_payloads ()
    | None -> refined
  in
  (* --- Recovery ---------------------------------------------------------- *)
  let all_vsefs = initial_vsefs @ refined_vsefs @ Option.to_list taint_vsef in
  Obs.Metrics.add
    (Obs.Metrics.counter ~help:"VSEFs generated" "sweeper_vsefs_total")
    (List.length all_vsefs);
  Obs.Metrics.inc
    (Obs.Metrics.counter ~help:"antibodies assembled" "sweeper_antibodies_total");
  (* detection-to-first-antibody: the attack span opened at detection; this
     instant closes the latency the paper's ~60 ms claim is about. *)
  Obs.Trace.instant ~cat:"attack" ~pid:cx.Stage.cx_server.Osim.Server.id
    ~args:
      [ ("app", app);
        ("elapsed_ms", Printf.sprintf "%.3f" (Stage.elapsed_ms cx));
        ("vsefs", string_of_int (List.length all_vsefs));
      ]
    "antibody-ready";
  if recover then begin
    (* Install the antibody first, then roll back and re-execute without
       the malicious input. *)
    ignore (Antibody.deploy proc antibody);
    let skip = if isolation <> [] then isolation else cx.Stage.cx_suspects in
    ignore (Recovery.recover cx.Stage.cx_server cx.Stage.cx_ck ~skip)
  end;
  {
    a_app = app;
    a_fault = cx.Stage.cx_fault;
    a_coredump = coredump;
    a_membug = membug;
    a_taint = taint;
    a_isolation = isolation;
    a_isolation_stream = stream_only;
    a_slice = slice;
    a_slice_verifies = slice_verifies;
    a_vsefs = all_vsefs;
    a_signature = signature;
    a_antibody = antibody;
    a_timings = Stage.timings cx;
    a_time_to_first_vsef_ms = Stage.mark_ms cx mark_first_vsef;
    a_time_to_best_vsef_ms = Stage.mark_ms cx mark_best_vsef;
    a_initial_analysis_ms = Stage.mark_ms cx mark_initial_analysis;
    a_total_ms = Stage.elapsed_ms cx;
  }

(** Analyze an attack that was just detected on [server] as [fault]: fold
    the stage list over a fresh context, then cross-check, assemble the
    antibody, and recover. Leaves the process rolled back and live again
    with the antibody installed (unless [recover] is false). *)
let handle_attack ?(recover = true) ?(stages = default_stages) ~app
    (server : Osim.Server.t) (fault : Vm.Event.fault) =
  Obs.Metrics.inc
    (Obs.Metrics.counter ~help:"attacks detected by lightweight monitoring"
       "sweeper_detections_total");
  Obs.Trace.with_span ~cat:"attack" ~pid:server.Osim.Server.id
    ~vts_ms:(Osim.Server.vtime_ms server)
    ~args:[ ("app", app); ("fault", Vm.Event.fault_to_string fault) ]
    "attack"
    (fun () ->
      finish ~recover (Stage.run_pipeline stages (Stage.init ~app server fault)))

(** Serve messages on a Sweeper-protected server, running the full defense
    process when the lightweight monitoring trips. Returns the analysis
    reports of the attacks handled. *)
let protected_handle ~app (server : Osim.Server.t) payload =
  match Osim.Server.handle server payload with
  | `Served id -> `Served id
  | `Filtered f -> `Filtered f
  | `Stopped -> `Stopped
  | `Crashed (_, fault) -> `Attack (handle_attack ~app server fault)
  | `Infected (_, _cmd) ->
    (* A compromise slipped past the monitors (correct ASLR guess). On a
       full-Sweeper host we still roll back and analyze: the infection left
       a fault-free trail, but the compromise event is the trigger. *)
    `Compromised
  | exception Detection.Detected d ->
    (* A VSEF vetoed the instruction: drop the in-flight message, roll back
       to a checkpoint predating it (the latest one may sit mid-message)
       and resume. *)
    let cur = server.Osim.Server.proc.Osim.Process.cur_msg in
    let ck, _ = Stage.Replay.rollback_point server ~msg_index:cur in
    ignore (Recovery.recover server ck ~skip:[ cur ]);
    `Blocked_by_vsef d
