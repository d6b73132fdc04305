(** First-class analysis stages: the control plane of the Figure 3
    pipeline.

    Each heavyweight analysis (memory state, memory bugs, taint, input
    isolation, slicing) is a {!t}: a named transformation of a shared
    {!ctx} that carries the faulted server, the rollback point, the
    suspect window, and every product accumulated so far. The
    {!Orchestrator} is then just a declarative list of stages — the §4.2
    sampling policies and future per-stage skipping/escalation manipulate
    the list, not the code.

    All replay mechanics — rollback, network-log rearm, sandboxing, fuel,
    and the missing-checkpoint fallback — live in exactly one place, the
    {!Replay} driver. Stages never touch {!Osim.Netlog.set_mode}
    themselves. *)

module Int_set = Set.Make (Int)

type timing = {
  st_name : string;
  st_wall_ms : float;      (** measured harness time for the stage *)
  st_instructions : int;   (** dynamic instructions monitored *)
}

type ctx = {
  cx_app : string;
  cx_server : Osim.Server.t;
  cx_fault : Vm.Event.fault;
  cx_crash_pc : int;
      (** pc at fault time, captured before any stage rolls back *)
  cx_ck : Osim.Checkpoint.t;   (** the rollback point every stage replays from *)
  cx_ck_fallback : bool;
      (** true when the ring had been overwritten/purged and the replay
          driver fell back to the server's origin checkpoint *)
  cx_upto : int;               (** replay window: log cursor at the crash *)
  cx_window : int;
      (** replay length in instructions: crash icount − [cx_ck]'s *)
  cx_suspects : int list;      (** message ids consumed since [cx_ck] *)
  (* Stage products, in pipeline order. [None] means "stage not run". *)
  cx_coredump : Coredump.report option;
  cx_membug : Membug.report option;
  cx_taint : Taint.result option;
  cx_isolation : (int list * bool) option;
      (** responsible message ids, stream-only flag *)
  cx_slice : Slice.result option;
  cx_vsefs : Vsef.t list;      (** accumulated, in order found *)
  cx_timings : timing list;    (** newest first; see {!timings} *)
  cx_marks : (string * float) list;
      (** named elapsed-ms milestones ("first-vsef", …) *)
  cx_t_start : float;
}

let proc cx = cx.cx_server.Osim.Server.proc

let elapsed_ms cx = (Unix.gettimeofday () -. cx.cx_t_start) *. 1000.

let mark cx name =
  Obs.Trace.instant ~cat:"stage" ~pid:cx.cx_server.Osim.Server.id name;
  { cx with cx_marks = (name, elapsed_ms cx) :: cx.cx_marks }

let mark_ms cx name =
  Option.value ~default:0. (List.assoc_opt name cx.cx_marks)

let add_vsefs cx vsefs = { cx with cx_vsefs = cx.cx_vsefs @ vsefs }

type t = {
  name : string;          (** the Table 2/3 stage name *)
  run : ctx -> ctx;
  instructions : ctx -> int;
      (** dynamic instructions the stage monitored, projected from the
          updated context (0 for stages that only read machine state) *)
}

(** Replay driver: the only owner of rollback, netlog rearm, sandboxing,
    and fuel. *)
module Replay = struct
  let analysis_fuel = 20_000_000
  (** fuel for an instrumented analysis replay *)

  let crash_fuel = 50_000_000
  (** fuel for an uninstrumented does-it-still-crash replay *)

  (** The newest checkpoint at or before [msg_index] — falling back to the
      oldest retained one, and finally to the server's origin checkpoint
      ("re-run from process start") when the ring has been overwritten or
      purged empty. Returns [(ck, fallback?)]. *)
  let rollback_point (server : Osim.Server.t) ~msg_index =
    match Osim.Checkpoint.before_message server.Osim.Server.ring ~msg_index with
    | Some ck -> (ck, false)
    | None -> (
      match Osim.Checkpoint.oldest server.Osim.Server.ring with
      | Some ck -> (ck, false)
      | None -> (server.Osim.Server.origin, true))

  (** Roll back to [ck] and arm replay of the log window up to [upto],
      dropping the messages in [skip]. Analysis replays are sandboxed
      (no external outputs); recovery replays are not (output commit
      handles duplicates). *)
  let arm ?(sandbox = true) (p : Osim.Process.t) ck ~upto ~skip =
    Osim.Checkpoint.rollback p ck;
    Osim.Netlog.set_mode p.Osim.Process.net (Osim.Netlog.Replay { upto; skip });
    p.Osim.Process.sandbox <- sandbox

  (** Back to live service: log in [Live] mode, sandbox off. *)
  let release (p : Osim.Process.t) =
    Osim.Netlog.set_mode p.Osim.Process.net Osim.Netlog.Live;
    p.Osim.Process.sandbox <- false

  (** Rearm the context's replay window and run one instrumented analysis
      over it. *)
  let analyze ?(skip = Int_set.empty) cx f =
    arm (proc cx) cx.cx_ck ~upto:cx.cx_upto ~skip;
    f (proc cx)

  (** Replay the window with no instrumentation; true when the crash (or
      the compromise) recurs. *)
  let crashes ?(skip = Int_set.empty) cx =
    arm (proc cx) cx.cx_ck ~upto:cx.cx_upto ~skip;
    match Osim.Process.run ~fuel:crash_fuel (proc cx) with
    | Vm.Cpu.Faulted _ -> true
    | Vm.Cpu.Halted -> (proc cx).Osim.Process.compromised <> None
    | Vm.Cpu.Blocked | Vm.Cpu.Out_of_fuel -> false
end

(** The shared context for an attack just detected on [server]: rollback
    point (newest checkpoint at or before the message being serviced when
    the monitors tripped), suspect window, replay length, crash pc. Reads
    machine state only — the first rollback happens when a stage asks the
    driver to replay. *)
let init ~app (server : Osim.Server.t) (fault : Vm.Event.fault) =
  let p = server.Osim.Server.proc in
  let net = p.Osim.Process.net in
  let crash_cursor = Osim.Netlog.cursor net in
  let ck, fallback =
    Replay.rollback_point server ~msg_index:(max 0 (crash_cursor - 1))
  in
  let suspects =
    List.map
      (fun m -> m.Osim.Netlog.m_id)
      (Osim.Netlog.consumed_since net ck.Osim.Checkpoint.ck_net_cursor)
  in
  {
    cx_app = app;
    cx_server = server;
    cx_fault = fault;
    cx_crash_pc = p.Osim.Process.cpu.Vm.Cpu.pc;
    cx_ck = ck;
    cx_ck_fallback = fallback;
    cx_upto = crash_cursor;
    cx_window = p.Osim.Process.cpu.Vm.Cpu.icount - ck.Osim.Checkpoint.ck_icount;
    cx_suspects = suspects;
    cx_coredump = None;
    cx_membug = None;
    cx_taint = None;
    cx_isolation = None;
    cx_slice = None;
    cx_vsefs = [];
    cx_timings = [];
    cx_marks = [];
    cx_t_start = Unix.gettimeofday ();
  }

(** Run one stage, recording its wall time and monitored instructions.
    The timing comes from {!Obs.Trace.timed}, so the Table 3 numbers and
    the emitted stage span are the same measurement; per-stage instruction
    budgets land in the default metrics registry. *)
let run stage cx =
  let server = cx.cx_server in
  let cx', ms =
    Obs.Trace.timed ~cat:"stage" ~pid:server.Osim.Server.id
      ~vts_ms:(Osim.Server.vtime_ms server) stage.name (fun () ->
        stage.run cx)
  in
  let instrs = stage.instructions cx' in
  Obs.Metrics.add
    (Obs.Metrics.counter ~help:"dynamic instructions monitored, per stage"
       ~labels:[ ("stage", stage.name) ]
       "sweeper_stage_instructions_total")
    instrs;
  Obs.Metrics.inc
    (Obs.Metrics.counter ~help:"pipeline stage executions"
       ~labels:[ ("stage", stage.name) ]
       "sweeper_stage_runs_total");
  {
    cx' with
    cx_timings =
      { st_name = stage.name; st_wall_ms = ms; st_instructions = instrs }
      :: cx'.cx_timings;
  }

let run_pipeline stages cx = List.fold_left (fun cx st -> run st cx) cx stages

let timings cx = List.rev cx.cx_timings
