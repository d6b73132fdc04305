(** Basic-block superinstruction compiler (execution tier 3).

    Compiles each basic block of a program into one fused OCaml closure —
    a chain of per-instruction specialized closures where fallthrough is
    a tail call — so {!Cpu.run} pays one bounds check and one
    hook-mask/fuel test per {e block} instead of per instruction. Every
    closure honors the same decline-before-mutate contract as
    {!Cpu.exec_fast}: a mid-block syscall, fault, unresolved symbol, or
    invalid indirect-control target stops before mutating state and hands
    the pc back to the per-instruction tiers, leaving machine state
    byte-identical to per-instruction execution.

    {b Bounds-proof elision.} When the caller supplies [safe_of] — per-pc
    facts from {!Static_an.Absint} — each Load/Loadb/Store/Storeb whose
    effective address is statically proven to stay inside one
    runtime-constant region [\[lo, hi)] swaps the full
    {!Layout.valid_data} walk (a multi-range check involving the mutable
    heap break) for two compares against the baked-in constants. The
    static proof only covers CFG-following executions, so the residual
    compare is also the soundness tripwire: an address outside the range
    (only reachable via a control-flow hijack, or a wrong proof) counts
    an {!Cpu.elision_trip}, permanently demotes the block to the fully
    guarded tiers, and declines — behaviour stays byte-identical to a
    never-elided run in every case; only tier accounting differs. *)

val compile :
  ?safe_of:(int -> (int * int) option) ->
  Program.t ->
  entry_pc:int ->
  len:int ->
  Cpu.t ->
  int
(** [compile code ~entry_pc ~len] fuses the [len] instructions starting
    at [entry_pc] into one closure obeying the tier-3 contract: it
    returns the number of instructions retired (= [len] iff the whole
    block ran, including via a taken terminator), leaves [pc] at the
    next instruction to execute, and never touches [icount] or the
    retirement counters — {!Cpu.run} accounts the returned count.
    Raises [Invalid_argument] if the range is not decoded code within a
    single segment. [safe_of pc] returning [Some (lo, hi)] elides the
    memory guard of the access at [pc] down to a range check against
    the constant region [\[lo, hi)]. *)

val compile_all :
  ?safe_of:(int -> (int * int) option) ->
  Program.t ->
  (int * int) array ->
  Cpu.compiled_blocks
(** [compile_all code bounds] compiles each [(entry_pc, length)] pair —
    typically [Static_an.Cfg.block_bounds] of [code] — into the compiled
    part of a block table. Built once per code image, it is shared by
    every CPU over that image through {!Cpu.install_blocks}: the closures
    take the CPU as an argument and capture nothing per-CPU. *)

val install :
  ?safe_of:(int -> (int * int) option) -> Cpu.t -> (int * int) array -> unit
(** [install cpu bounds] is {!compile_all} of the CPU's own program
    followed by {!Cpu.install_blocks}, engaging tier 3 for subsequent
    {!Cpu.run} calls. Blocks overlapping currently hooked pcs stay
    demoted until the hooks detach. *)
