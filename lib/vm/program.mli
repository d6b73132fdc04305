(** The dense decoded program: the CPU's code store.

    Code is a small set of contiguous segments (application image, library
    image), each an immutable array of decoded instructions indexed by
    [(pc - base) / Isa.instr_size]. Instruction fetch is two compares and
    an array load — no hashing. The representation is exposed so the
    interpreter's fast path can walk it without intermediate allocation. *)

type segment = {
  seg_base : int;
  seg_limit : int;  (** exclusive: [seg_base + length * instr_size] *)
  seg_instrs : Isa.instr array;
}

type t = { segments : segment array }

val make_segment : base:int -> Isa.instr array -> segment

val of_segments : segment list -> t
(** Segments sorted by base; callers guarantee they do not overlap. *)

val of_instrs : base:int -> Isa.instr array -> t

val merge : t list -> t
(** Concatenate the segments of several programs (e.g. the app and libc
    images of one process) into a single code store. *)

val locate : t -> int -> (int * int) option
(** [(segment index, instruction index)] of an instruction address, or
    [None] when outside every segment or misaligned. *)

val fetch : t -> int -> Isa.instr option
(** The instruction at an address, or [None] (unmapped or misaligned — the
    CPU turns that into an [Exec_violation]). *)

val iteri : (int -> Isa.instr -> unit) -> t -> unit
(** Iterate every (address, instruction) pair, segments in base order. *)

val length : t -> int
(** Total number of decoded instructions. *)
