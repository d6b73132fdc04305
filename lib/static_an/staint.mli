(** Static taint reachability: an over-approximation of the dynamic
    engine in [Sweeper.Taint] over every execution that follows the CFG.

    One abstract state per instruction — a bitmask of registers that may
    hold tainted data plus one global "memory may be tainted" bit —
    iterated to a fixpoint over the decoded program.
    Taint enters only at [Syscall sys_recv]. [Ret] flows into a shared
    return state joined into every {e return site} (the instruction
    after a call) — the context-insensitive "a return goes to some
    return site" model. [CallInd] and unresolved targets join into a
    global hijack state that feeds every instruction.

    The result is the pc set [S] (may-propagate). It contains every pc
    the dynamic engine marks on an execution that follows the CFG. It
    does not cover hijacked control flow: a return that lands off every
    return site leaves the model, and the dynamic engine can then mark
    pcs outside [S]. *)

type t

val analyze : Vm.Program.t -> t

val may_propagate : t -> int -> bool
(** pc ∈ [S]: the dynamic engine may record a taint propagation here on
    a CFG-following execution. [false] for addresses outside the
    program. *)

val total : t -> int
(** Decoded instructions analyzed. *)

val prop_count : t -> int

val analysis_ms : t -> float
(** Analysis wall time, milliseconds. *)
