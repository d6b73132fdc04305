(** Flow-sensitive interval abstract interpretation over decoded
    {!Vm.Program} segments, on the {!Cfg}.

    One abstract state per instruction: an unsigned-32 interval per
    register. The analysis runs a worklist to a post-fixpoint with
    widening at loop heads (any predecessor whose block id is not below
    the target's — block ids ascend with pc, so every cycle closes
    through such an edge), then two descending narrowing sweeps.

    Interprocedural flow follows the MiniC calling convention the way
    {!Staint} follows taint: a direct [Call] edge carries the caller's
    out-state (return slot pushed) into the callee entry; the call's
    fallthrough edge — its return site — carries the {e pre-call} state
    with every register except [SP]/[FP] havocked to top (callees are
    caller-saved scratch; prologue/epilogue restore the two stack
    registers). Indirect calls join into a single hijack state broadcast
    to every address-taken block (blocks whose entry pc appears as an
    immediate operand anywhere in the program).

    Against the process {!Vm.Layout} the analysis partitions every
    memory access (Load/Loadb/Store/Storeb) by its effective-address
    interval:

    - {e proven}: the interval fits inside one runtime-constant valid
      region — the data segment or the stack, whose bounds never move
      after load (the heap depends on the mutable break, so heap
      accesses are never proven);
    - {e proven-oob}: disjoint from every region the process could ever
      map writable (data, stack, and the heap arena up to its maximum);
    - {e possible}: anything in between;
    - {e unreachable}: the pc is dead under CFG-following control flow.

    The facts are only claims about CFG-following executions; a
    control-flow hijack can reach any pc with any state. Consumers that
    act on "proven" therefore keep a residual check: the block tier's
    elided closures ({!Vm.Block_compile}) still compare the address
    against the proven region's constant bounds and trip back to full
    instrumentation on violation. *)

type iv = { lo : int; hi : int }
(** Inclusive unsigned-32 bounds, [0 <= lo <= hi <= Vm.Isa.word_mask]. *)

(** Classification of one memory-access pc. *)
type cls =
  | Proven of int * int
      (** effective address provably inside [\[lo, hi)], a region whose
          bounds are fixed for the lifetime of the process *)
  | Possible  (** may or may not be a valid access *)
  | Oob  (** provably outside everything the process can ever map *)
  | Unreachable  (** dead code under CFG-following control flow *)

type t

val analyze :
  ?entries:int list ->
  ?init_sp:int ->
  ?cfg:Cfg.t ->
  layout:Vm.Layout.t ->
  Vm.Program.t ->
  t
(** Analyze a decoded program. [entries] are the boundary pcs execution
    may start from (default: every segment base); [init_sp] pins the
    stack pointer's entry value (the loader's [stack_top - 16]) — left
    out, [SP] starts unconstrained and nothing stack-relative is ever
    proven. [cfg] must be {!Cfg.build} of the same program: a caller
    that needs the CFG anyway (the loader feeds its block bounds to
    block compilation) builds it once and passes it here; left out, the
    analysis builds its own. The result does not keep it. *)

val interval_at : t -> pc:int -> reg:int -> iv option
(** In-state interval of register [reg] just before executing [pc];
    [None] when the pc is unmapped or statically unreachable. Sound for
    CFG-following executions: every dynamically observed register value
    at [pc] lies inside the interval. *)

val classify : t -> int -> cls option
(** The access partition entry for a pc; [None] when the instruction
    there is not a memory access (or the pc is unmapped). *)

val safe_range : t -> int -> (int * int) option
(** The constant region [\[lo, hi)] backing a proven access, in the form
    {!Vm.Block_compile} bakes into an elided closure; [None] for
    anything not proven. *)

val feasible_unsafe_write : t -> int -> bool
(** pc is a store that could statically go out of bounds ([Possible] or
    [Oob]) — the feasibility bar a VSEF overflow check must clear in
    {!Sweeper.Antibody.validate_feasible}. Proven-safe and unreachable
    stores, and non-stores, are infeasible. *)

val iter_accesses : t -> (int -> cls -> unit) -> unit
(** Iterate every memory-access pc with its classification, segments in
    base order, ascending pc. *)

val instructions : t -> int
(** Decoded instructions analyzed. *)

val accesses : t -> int
(** Memory-access instructions (loads and stores, word and byte). *)

val proven : t -> int

val possible : t -> int

val oob : t -> int

val unreachable : t -> int

val proven_pct : t -> float
(** [proven / (accesses - unreachable)] — the share of {e reachable}
    accesses proven safe, the fraction whose guards elision removes
    (dead accesses never pay a guard); 0 when nothing is reachable. *)

val analysis_ms : t -> float
(** Analysis wall time, milliseconds; it includes the CFG build only
    when {!analyze} built the CFG itself. *)
