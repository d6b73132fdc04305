(** The end-to-end Sweeper defense process of the paper's Figure 3:
    lightweight monitoring trips → rollback → staged heavyweight analysis
    (memory state → memory bugs → taint → input isolation → slicing) →
    antibody generation → recovery.

    Each analysis is a {!Stage.t} replaying from the same checkpoint with
    different instrumentation; {!handle_attack} folds a declarative stage
    list over a shared {!Stage.ctx}, so policies (sampling, per-stage
    skipping, escalation) manipulate the list rather than the code. *)

module Int_set : Set.S with type elt = int and type t = Set.Make(Int).t

type stage_timing = Stage.timing = {
  st_name : string;
  st_wall_ms : float;     (** measured harness time for the stage *)
  st_instructions : int;  (** dynamic instructions monitored *)
}

type report = {
  a_app : string;
  a_fault : Vm.Event.fault;
  a_coredump : Coredump.report;
  a_membug : Membug.report;
  a_taint : Taint.result;
  a_isolation : int list;  (** message ids reproducing the crash *)
  a_isolation_stream : bool;
      (** true when only the (minimized) suspect stream reproduces it —
          stateful exploits like the CVS double free *)
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

(** The five Figure 3 analyses, individually addressable so policies can
    build reduced or reordered pipelines: "Memory State Analysis",
    "Memory Bug Detection", "Input/Taint Analysis", "Input Isolation",
    "Dynamic Slicing". *)

val coredump_stage : Stage.t
val membug_stage : Stage.t
val taint_stage : Stage.t
val isolation_stage : Stage.t
val slicing_stage : Stage.t

val default_stages : Stage.t list
(** The Figure 3 pipeline, in order. *)

val finish : ?recover:bool -> Stage.ctx -> report
(** Cross-check the stage products, assemble the antibody, and (by
    default) recover the server. Stages that did not run contribute
    neutral products: empty findings, [No_fault] taint, a vacuously
    verifying slice. *)

val handle_attack :
  ?recover:bool ->
  ?stages:Stage.t list ->
  app:string ->
  Osim.Server.t ->
  Vm.Event.fault ->
  report
(** Analyze an attack just detected on the server by folding [stages]
    (default: {!default_stages}) over a fresh context. With [recover] (the
    default) the process ends up rolled back and live again, with the
    antibody installed and the malicious input quarantined. *)

val protected_handle :
  app:string ->
  Osim.Server.t ->
  string ->
  [ `Served of int
  | `Filtered of string
  | `Stopped
  | `Attack of report
  | `Compromised
  | `Blocked_by_vsef of Detection.t ]
(** Serve one message on a Sweeper-protected server, running the full
    defense process when the lightweight monitoring trips, and handling
    VSEF vetoes by dropping the in-flight message and rolling back. *)
