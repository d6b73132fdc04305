(** First-class analysis stages: the control plane of the Figure 3
    pipeline.

    Each heavyweight analysis is a {!t}: a named transformation of a
    shared {!ctx} carrying the faulted server, the rollback point, the
    suspect window, and every product accumulated so far. The orchestrator
    becomes a declarative list of stages; all replay mechanics (rollback,
    netlog rearm, sandboxing, fuel, missing-checkpoint fallback) live in
    the {!Replay} driver alone. *)

module Int_set : Set.S with type elt = int and type t = Set.Make(Int).t

type timing = {
  st_name : string;
  st_wall_ms : float;     (** measured harness time for the stage *)
  st_instructions : int;  (** dynamic instructions monitored *)
}

type ctx = {
  cx_app : string;
  cx_server : Osim.Server.t;
  cx_fault : Vm.Event.fault;
  cx_crash_pc : int;
      (** pc at fault time, captured before any stage rolls back *)
  cx_ck : Osim.Checkpoint.t;  (** the rollback point every stage replays from *)
  cx_ck_fallback : bool;
      (** true when the ring had been overwritten/purged and the replay
          driver fell back to the server's origin checkpoint *)
  cx_upto : int;              (** replay window: log cursor at the crash *)
  cx_window : int;
      (** replay length in instructions, from [cx_ck] to the crash: the
          icount at the fault minus [cx_ck]'s. A faithful replay of the
          window runs exactly this many, so the slicing stage sizes its
          dependence graph from it. *)
  cx_suspects : int list;     (** message ids consumed since [cx_ck] *)
  cx_coredump : Coredump.report option;
  cx_membug : Membug.report option;
  cx_taint : Taint.result option;
  cx_isolation : (int list * bool) option;
      (** responsible message ids, stream-only flag *)
  cx_slice : Slice.result option;
  cx_vsefs : Vsef.t list;     (** accumulated, in order found *)
  cx_timings : timing list;   (** newest first; see {!timings} *)
  cx_marks : (string * float) list;
      (** named elapsed-ms milestones ("first-vsef", …) *)
  cx_t_start : float;
}

val proc : ctx -> Osim.Process.t
val elapsed_ms : ctx -> float

val mark : ctx -> string -> ctx
(** Record a named milestone at the current elapsed time. *)

val mark_ms : ctx -> string -> float
(** The elapsed time a milestone was recorded at; 0 if never recorded. *)

val add_vsefs : ctx -> Vsef.t list -> ctx

type t = {
  name : string;  (** the Table 2/3 stage name *)
  run : ctx -> ctx;
  instructions : ctx -> int;
      (** dynamic instructions the stage monitored, projected from the
          updated context (0 for stages that only read machine state) *)
}

(** Replay driver: the only owner of rollback, netlog rearm, sandboxing,
    and fuel. *)
module Replay : sig
  val analysis_fuel : int
  (** fuel for an instrumented analysis replay (20M instructions) *)

  val crash_fuel : int
  (** fuel for an uninstrumented does-it-still-crash replay (50M) *)

  val rollback_point :
    Osim.Server.t -> msg_index:int -> Osim.Checkpoint.t * bool
  (** The newest checkpoint at or before [msg_index] — falling back to
      the oldest retained one, and finally to the server's origin
      checkpoint ("re-run from process start") when the ring has been
      overwritten or purged empty. Returns [(ck, fallback?)]. *)

  val arm :
    ?sandbox:bool ->
    Osim.Process.t ->
    Osim.Checkpoint.t ->
    upto:int ->
    skip:Set.Make(Int).t ->
    unit
  (** Roll back to the checkpoint and arm replay of the log window up to
      [upto], dropping the messages in [skip]. Analysis replays sandbox
      outputs (the default); recovery replays do not. *)

  val release : Osim.Process.t -> unit
  (** Back to live service: log in [Live] mode, sandbox off. *)

  val analyze : ?skip:Int_set.t -> ctx -> (Osim.Process.t -> 'a) -> 'a
  (** Rearm the context's replay window and run one instrumented analysis
      over it. *)

  val crashes : ?skip:Int_set.t -> ctx -> bool
  (** Replay the window with no instrumentation; true when the crash (or
      the compromise) recurs. *)
end

val init : app:string -> Osim.Server.t -> Vm.Event.fault -> ctx
(** The shared context for an attack just detected on the server:
    rollback point, suspect window, replay length, crash pc. Reads
    machine state only. *)

val run : t -> ctx -> ctx
(** Run one stage, recording its wall time and monitored instructions. *)

val run_pipeline : t list -> ctx -> ctx

val timings : ctx -> timing list
(** Recorded stage timings, in execution order. *)
