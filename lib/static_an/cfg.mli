(** Control-flow graph recovery over decoded {!Vm.Program} segments.

    Indirect calls, returns, and unresolved targets get a conservative
    edge into a single "unknown" sink node; direct branches to unmapped
    addresses get no edge (the CPU faults there). [Call] blocks carry
    both a [Call] edge to the callee and a [Fallthrough] edge to their
    return site. *)

type edge_kind =
  | Fallthrough  (** straight-line successor (incl. a call's return site) *)
  | Jump  (** unconditional direct jump *)
  | Branch  (** taken edge of a conditional branch *)
  | Call  (** direct call to the callee's entry block *)
  | Unknown  (** conservative edge into the unknown sink *)

type block = {
  b_id : int;
  b_pc : int;  (** address of the first instruction; [-1] for the sink *)
  b_instrs : (int * Vm.Isa.instr) array;  (** (pc, instruction) pairs *)
  mutable b_succs : (int * edge_kind) list;
      (** successor block ids, program order; owned by {!build} *)
  mutable b_preds : int list;  (** predecessor block ids; owned by {!build} *)
}

type t

val build : Vm.Program.t -> t
(** Recover the CFG of every segment of a decoded program. *)

val blocks : t -> block array
(** All blocks, ordinary blocks in ascending pc order; the unknown sink
    (if any) is last. *)

val unknown : t -> int option
(** Id of the unknown sink node, when one exists. *)

val block_bounds : t -> (int * int) array
(** [(entry_pc, instruction-count)] of every ordinary block, ascending
    pc — the input {!Vm.Block_compile.install} consumes. The unknown
    sink is excluded: it names no code range, so there is nothing to
    compile for it; indirect control resolves at run time. *)

val is_entry : t -> block -> bool
(** Whether the block starts at a segment base. *)

val block_at : t -> int -> block option
(** The block whose instruction range contains an address, if any. *)

val succs : block -> int list
val preds : block -> int list

val to_dot : ?name:string -> t -> string
(** Graphviz rendering: one box per block listing its disassembly, edge
    styles by kind (dashed = branch, bold = call, dotted = unknown). *)
