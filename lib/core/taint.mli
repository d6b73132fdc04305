(** Dynamic taint analysis (the TaintCheck re-implementation).

    Network bytes are tainted with the id of the message they arrived in;
    taint flows through data movement and arithmetic (not through pointers
    or control flow — that is what distinguishes it from slicing) and an
    alarm is raised when tainted data is about to be used as a control
    target.

    Internally the engine keeps taint as interned label-set ids over paged
    shadow memory (parallel to {!Vm.Memory}'s pages), and {!run} replays on
    a fused loop that reuses the interpreter's uninstrumented executor
    instead of the per-instruction effect-record path — the heavyweight
    analysis at close to fast-path speed. {!Oracle} is the original
    per-byte engine, kept as the differential-testing reference. *)

module Int_set : Set.S with type elt = int and type t = Set.Make(Int).t

type verdict =
  | Tainted_ret of { pc : int; msgs : Int_set.t }
      (** a return address built from these messages was about to be used *)
  | Tainted_call of { pc : int; msgs : Int_set.t }
  | Tainted_store_fault of { pc : int; msgs : Int_set.t }
      (** the faulting store was writing attacker-controlled bytes *)
  | Tainted_exec of { pc : int; msgs : Int_set.t }
      (** tainted bytes reached [system]/[exec] *)
  | Untainted_fault of { pc : int }
      (** the fault involved no tainted data (e.g. a NULL dereference
          through an untainted pointer) *)
  | No_fault

(** Tracker state, exposed so sampling and other online monitors can drive
    the engine hook-by-hook. *)
type t

val create : Osim.Process.t -> t

val on_effect : t -> Vm.Event.effect_ -> unit
(** The propagation rule, applied per committed instruction (register this
    as a post-hook). *)

val guard : t -> Vm.Event.effect_ -> unit
(** A pre-hook check that stops tainted data {e before} it is misused —
    raises {!Detection.Detected} on a tainted return target, indirect-call
    target, or [exec] argument (the argument scan covers the command
    string's actual NUL-terminated bytes, up to the same length cap the
    syscall layer's [load_cstring] applies). TaintCheck as an online
    monitor: what a sampling host or sentinel node runs. *)

val classify_fault : t -> Vm.Cpu.outcome -> verdict
(** After a replay ends, classify its outcome (the fault itself pre-empts
    hooks, so the verdict is computed from machine state at the fault). *)

type result = {
  t_verdict : verdict;
  t_prop_pcs : int list;  (** taint-propagating instructions *)
  t_instructions : int;
}

val verdict_msgs : verdict -> int list
val verdict_to_string : verdict -> string

val run : ?fuel:int -> Osim.Process.t -> result
(** Attach the tracker, run the replay to completion, classify, detach.
    Replays on the fused fast loop when this tracker is the only
    instrumentation installed on the CPU; observable results are identical
    to the hook-driven path either way. *)

val vsef_of_result :
  app:string -> proc:Osim.Process.t -> result -> Vsef.t option
(** The taint-derived VSEF: propagation instructions plus the sink. *)

(** The original engine — one hashtable entry per tainted byte, label sets
    as AVL sets, every instruction on the generic instrumented path — kept
    verbatim as the reference the fast engine is differentially tested
    against. Same propagation rules, same guard spec, same verdicts. *)
module Oracle : sig
  type state

  val create : Osim.Process.t -> state
  val on_effect : state -> Vm.Event.effect_ -> unit
  val guard : state -> Vm.Event.effect_ -> unit
  val classify_fault : state -> Vm.Cpu.outcome -> verdict
  val run : ?fuel:int -> Osim.Process.t -> result
end
