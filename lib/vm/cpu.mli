(** The CPU interpreter with dynamic instrumentation.

    Execution is two-phase: each step first {e computes} the full effect
    record of the current instruction (operand values, memory addresses,
    would-be writes, control destination, even the fault it is about to
    raise) without touching machine state, then presents it to the
    registered pre-hooks, and only then commits. This is what lets a VSEF
    veto a single store or control transfer before the corruption happens —
    the analogue of attaching PIN instrumentation to a running process.

    The interpreter is tiered: {!run} executes unhooked instructions by
    direct interpretation (no effect record, no hook dispatch) and drops
    to the instrumented path only at pcs with hooks installed, when global
    hooks exist, or for instructions the fast path cannot reproduce
    exactly (syscalls, anything that would fault). Observable semantics
    are identical either way; instrumentation overhead is proportional to
    the hooked instructions actually executed. *)

type hook = Event.effect_ -> unit

type hooks

type block_table
(** Dispatch tables for the block-superinstruction tier (tier 3): per
    basic block, a fused closure executing the whole body with one bounds
    check and one hook-mask/fuel test at entry. The closures and their
    pc index are a {!compiled_blocks} shared by every CPU that installs
    it; which blocks are runnable (hooked, invalidated) is this CPU's
    own. Managed through {!install_blocks}, {!clear_blocks}, and
    {!invalidate_block}. *)

type t = {
  regs : int array;
  mutable pc : int;
  mutable flag_a : int;  (** first operand of the last [Cmp] *)
  mutable flag_b : int;  (** second operand of the last [Cmp] *)
  mem : Memory.t;
  code : Program.t;
  layout : Layout.t;
  mutable sys_handler : t -> Event.effect_ -> int -> unit;
      (** OS services; fills [e_sys] of the effect it is given *)
  mutable halted : bool;
  mutable icount : int;  (** dynamic instructions executed *)
  mutable fast_retired : int;
      (** instructions retired on the uninstrumented fast path. Batched:
          charged at each fast-run exit, never per instruction. Monotonic —
          unlike [icount], rollback does not rewind it. *)
  mutable slow_retired : int;
      (** instructions retired on the instrumented path. Monotonic. *)
  mutable block_retired : int;
      (** instructions retired inside compiled basic-block
          superinstructions (tier 3). Batched per block. Monotonic;
          [block_retired + fast_retired + slow_retired] equals the
          instructions ever executed, in every configuration. *)
  mutable fault_count : int;  (** machine faults surfaced by {!run} *)
  mutable elision_trips : int;
      (** times a bounds-elided block closure saw an address outside its
          statically proven range; each trip permanently demotes the
          block to the fully guarded tiers *)
  hooks : hooks;
  pc_hook_mask : Bytes.t array;
      (** parallel to [code.segments]: non-zero bytes mark pcs with per-pc
          hooks, steering {!run}'s dispatch to the instrumented path *)
  mutable blocks : block_table option;
      (** compiled basic-block superinstructions, when installed *)
  scratch : Event.effect_;
      (** the one effect record the instrumented path reuses for every
          instruction — hooks may read it only during their callback *)
  scr_read : Event.access;   (** scratch buffer: the instruction's one read *)
  scr_write : Event.access;  (** scratch buffer: the instruction's one write *)
  scr_mr : Event.access list;  (** preallocated [[scr_read]] *)
  scr_mw : Event.access list;  (** preallocated [[scr_write]] *)
}

type outcome =
  | Halted
  | Blocked  (** a syscall would block; re-run when input is available *)
  | Faulted of Event.fault
  | Out_of_fuel

val create : mem:Memory.t -> layout:Layout.t -> code:Program.t -> t

val get_reg : t -> Isa.reg -> int
val set_reg : t -> Isa.reg -> int -> unit

(** Opaque handle for removing an installed hook. *)
type hook_id

val add_pre_hook : t -> hook -> hook_id
(** Hook every instruction, before state commit. *)

val add_post_hook : t -> hook -> hook_id
(** Hook every instruction, after commit (syscall effects visible). *)

val add_pc_hook : t -> pc:int -> hook -> hook_id
(** Pre-commit hook firing only at [pc] — the cheap, targeted
    instrumentation VSEFs are made of. *)

val add_pc_post_hook : t -> pc:int -> hook -> hook_id
(** Post-commit hook at one [pc] — for observing a syscall's result. *)

val remove_hook : t -> hook_id -> unit

val pc_hook_count : t -> int
(** Per-pc hooks (pre and post) currently installed — the VSEF
    footprint. *)

val global_hook_count : t -> int
(** Every-instruction hooks (pre and post) currently installed. Analyses
    that fuse their instrumentation into a private run loop check this
    (through {!run_fused}) to verify nobody else is listening before
    bypassing the generic hook dispatch. *)

val fetch : t -> int -> Isa.instr
(** The instruction at an address; raises [Event.Fault (Exec_violation _)]
    when the address is unmapped or misaligned — exactly the fault
    {!step} would raise. Allocation-free. *)

val exec_fast : t -> Isa.instr -> bool
(** Direct interpretation of one instruction: no effect record, no hook
    dispatch, no allocation. Returns [true] when the instruction fully
    executed (pc and icount already advanced). Returns [false] — {e before
    mutating any state} — for anything it cannot reproduce exactly
    (syscalls, unresolved symbols, any access or control transfer that
    would fault); the caller must then re-execute the instruction with
    {!step}, where deferred-fault and hook semantics live. This is the
    building block {!run}'s fast path uses; it is exposed so heavyweight
    analyses can fuse their shadow-state updates into a private loop
    instead of paying the per-instruction effect-record cost. *)

val step : t -> Event.effect_
(** Execute one instruction on the instrumented path, always building the
    full effect record. The returned record is the CPU's reused scratch
    record: it is only valid until the next instruction executes — copy
    out anything you keep. Raises [Event.Fault] on machine faults (state
    unchanged, pc at the faulting instruction), [Event.Blocked] when a
    syscall would block, and propagates exceptions raised by hooks
    (detections) before commit. *)

val run : ?fuel:int -> t -> outcome
(** Run until halt, fault, block, or [fuel] instructions. Fault state is
    preserved so the core-dump analyzer can inspect it. Unhooked
    instructions execute on the uninstrumented fast path — or, when a
    block table is installed, on compiled block superinstructions —
    observable semantics are identical to repeated {!step}. [fuel] is
    exact in every tier: a block is entered only when the remaining fuel
    covers its whole body (block-entry fuel clamping), so [Out_of_fuel]
    lands on the same icount as per-instruction execution. *)

val run_fused :
  ?fuel:int -> t -> hook:hook -> (int -> Program.segment -> int -> int) ->
  outcome
(** [run_fused ~fuel cpu ~hook burst] replays with one heavyweight
    analysis attached, with {!run}'s outcome, fuel and fault-count
    semantics. [hook] (the analysis's effect-record recorder) is installed
    as a global post-hook for the duration and removed on every exit,
    exceptions included. When it is then the only instrumentation, the
    analysis's own loop drives execution: [burst i s n] is called
    whenever the pc lies in [s] (segment [i] of [code]) with [n] fuel
    left, once per burst rather than per instruction. It executes
    instructions of [s] through {!exec_fast}, updating the analysis state
    alongside, sends any instruction [exec_fast] declines through {!step}
    (where [hook] sees it), and returns the remaining fuel at one unit per
    instruction — unchanged iff it made no progress, in which case the
    driver steps the instruction itself. The bursts' work is charged to
    [fast_retired]. With any other hook installed it falls back to {!run},
    so [hook] sees every instruction and the foreign hooks keep firing. *)

(** {2 Block-superinstruction tier (tier 3)} *)

type compiled_blocks
(** The compiled part of a block table for one code image: the fused
    closures and their pc index. Built once per image and never written
    afterwards, so any number of CPUs over that image — on any domain —
    can {!install_blocks} the same value. *)

val index_blocks :
  Program.t -> (int * int * (t -> int)) array -> compiled_blocks
(** Index compiled basic blocks given as [(entry_pc, length, closure)]
    triples — normally via {!Block_compile.compile_all}, which derives
    the bounds from a CFG and compiles the closures. Raises
    [Invalid_argument] when a block does not lie within one segment. *)

val install_blocks : t -> compiled_blocks -> unit
(** Engage tier 3 on this CPU with fresh per-CPU block state: every
    block valid, blocks containing currently hooked pcs demoted to the
    per-instruction tiers. Subsequent hook attach/detach keeps the
    demotion in sync, effective no later than the next block entry, and
    touches only this CPU. Raises [Invalid_argument] unless the blocks
    were compiled from this CPU's own [code]. *)

val clear_blocks : t -> unit
(** Remove the block table; execution falls back to the fast/slow tiers. *)

val invalidate_block : t -> pc:int -> unit
(** Permanently demote, on this CPU only, the block containing [pc] to
    per-instruction execution (takes effect no later than the next block
    entry). *)

val elision_trip : t -> pc:int -> unit
(** The soundness tripwire of bounds-check elision: count a proven-safe
    access caught outside its static range and {!invalidate_block} the
    block containing [pc]. Called by elided {!Block_compile} closures
    just before they decline. *)

val block_count : t -> int
(** Compiled blocks installed (0 when the tier is off). *)

(** Register-file snapshots (memory snapshots live in {!Memory}; the OS
    layer combines both into checkpoints). *)
type reg_snapshot

val snapshot_regs : t -> reg_snapshot
val restore_regs : t -> reg_snapshot -> unit
