(** Cooperative multi-host scheduler.

    Interleaves many {!Server} processes in simulated time using the
    non-blocking {!Server.step}: each turn runs one task for a quantum of
    instructions, and a virtual clock derived from {!Server.instrs_per_ms}
    picks the runnable task furthest behind. Per-host execution is
    instruction-for-instruction identical to running the hosts
    sequentially (checkpoints land at the same icount thresholds and each
    host consumes only its own inbox in order), which the scheduler test
    suite asserts.

    Turn selection is O(log n): runnable tasks live in a binary min-heap
    keyed on (virtual time, id) with lazy invalidation, and tasks with
    undelivered mail sit on an explicit pending-delivery queue instead of
    being found by scanning.

    The scheduler is policy-free: crashes, infections, and exceptions
    raised by monitoring hooks (VSEF vetoes) park the task. {!step_until}
    reifies the event stream into a bounded {!outbox} and stops at a
    virtual-time barrier; the driver drains the outbox, may repair a
    host and {!unpark} it — the building block the domain-sharded
    community ({!Cluster}) drives windows with. *)

type event =
  | Filtered of string * string
      (** an input filter rejected the message at delivery: filter name,
          payload *)
  | Served of int      (** the message with this log id was fully served *)
  | Crashed of Vm.Event.fault
  | Infected of string
  | Stopped
  | Raised of exn
      (** a monitoring hook aborted execution (e.g. a VSEF veto); the
          driver owns the exception *)

type state = Runnable | Waiting | Parked of event

(** An inbox entry: the payload plus the sender provenance stamped into
    the host's network log at delivery ({!Netlog.provenance}). *)
type mail = {
  ml_src : int;  (** sending host id; [-1] = external/driver *)
  ml_seq : int;  (** per-source sequence number *)
  ml_payload : string;
}

type task = {
  sk_id : int;
  sk_server : Server.t;
  mutable sk_state : state;
  mutable sk_front : mail list;
  mutable sk_back : mail list;
  mutable sk_pending : int option;  (** log id of the message in flight *)
  sk_base_icount : int;
  mutable sk_vtime_ms : float;      (** per-task virtual clock *)
  mutable sk_delivered : int;
  mutable sk_served : int;
  mutable sk_span : Obs.Trace.span option;
      (** the open per-message serve span (delivery to Served/park) *)
  sk_on_deliver : (string -> unit) option;
  mutable sk_hseq : int;    (** ready-heap entry generation (internal) *)
  mutable sk_queued : bool; (** on the pending-delivery queue (internal) *)
}

type t

val default_quantum : int
(** 2000 instructions (0.4 simulated ms) per scheduling turn. *)

val create : ?quantum:int -> unit -> t

val add : ?on_deliver:(string -> unit) -> t -> Server.t -> task
(** Register a server. [on_deliver] runs just before each of its inbox
    messages enters the host's network log (antibody sync, accounting). *)

val post : ?src:int -> ?seq:int -> t -> task -> string -> unit
(** Queue a message on the task's inbox. Delivery happens when the host is
    idle; input filters can still reject it then ({!event.Filtered}).
    [src]/[seq] are the sender's provenance, stamped into the host's
    network log at delivery together with the task's virtual arrival
    time (defaults: external). When tracing is on and [src >= 0], a
    Chrome flow arrow links the post to the receiver's serve span. *)

val unpark : t -> task -> unit
(** Return a parked task to service after the driver repaired its host
    (e.g. rollback recovery). The host must be serviceable again, or the
    task will immediately park on the same condition. *)

val run : t -> unit
(** Run until quiescent: no task runnable, no waiting task with mail.
    Events are discarded and parked tasks stay parked; drivers that react
    to events use {!step_until} with an {!outbox}. *)

(** {1 Reified driving — the sharded-community core} *)

type effect_ = {
  fx_vtime : float;  (** the task's virtual time when the event fired *)
  fx_task : task;
  fx_event : event;
}

type outbox
(** A bounded buffer of reified scheduler events. The bound is a
    low-water mark checked between turns — a turn may append its handful
    of events past the limit, but nothing is ever dropped; {!step_until}
    reports [Backpressure] and the driver drains before resuming. *)

val make_outbox : limit:int -> unit -> outbox
val outbox_length : outbox -> int

val outbox_drain : outbox -> effect_ list
(** Take the buffered effects, oldest first, leaving the outbox empty. *)

type stop =
  | Barrier       (** every runnable task has reached the barrier time *)
  | Quiescent     (** nothing runnable, no waiting task has mail *)
  | Backpressure  (** the outbox hit its bound; drain it and resume *)

val step_until : ?outbox:outbox -> t -> until:float -> stop
(** The pure driver core: run turns while some runnable task is behind
    the virtual-time barrier [until] (simulated ms), appending every
    event to [outbox] (when given). [run] is [step_until ~until:infinity]
    without an outbox. *)

val has_runnable_before : t -> until:float -> bool
(** Would {!step_until} with this barrier make progress right now? (True
    when a runnable task sits behind [until]; pending deliveries count
    via the task they would wake.) *)

val quiescent : t -> bool

val vtime_ms : task -> float
val vclock_ms : t -> float

val instructions : t -> int
(** Total instructions executed under the scheduler. *)

val steps : t -> int
(** Scheduling turns taken. *)

val parks : t -> int
(** Tasks parked on events (crash, infection, stop, veto). *)

val unparks : t -> int
(** Parked tasks returned to service by the driver. *)

val backpressures : t -> int
(** Times {!step_until} stopped on a full outbox. *)

val register_metrics : t -> Obs.Metrics.t -> unit
(** Register scheduler-wide gauges (turns, instructions, parks/unparks,
    virtual clock) in a metrics registry. *)

val tasks : t -> task list
(** All registered tasks, in registration order. *)
