(** The dense decoded program: the CPU's code store.

    Code is a small set of contiguous segments (application image, library
    image), each an immutable array of decoded instructions indexed by
    [(pc - base) / Isa.instr_size]. Instruction fetch is two compares and
    an array load — no hashing — which is what lets the uninstrumented
    interpreter run at memory speed. Segments are immutable after load;
    self-modifying code does not exist on this machine (code pages are not
    writable data, see {!Layout}). *)

type segment = {
  seg_base : int;
  seg_limit : int;  (** exclusive: [seg_base + length * instr_size] *)
  seg_instrs : Isa.instr array;
}

type t = { segments : segment array }

let make_segment ~base instrs =
  {
    seg_base = base;
    seg_limit = base + (Array.length instrs * Isa.instr_size);
    seg_instrs = instrs;
  }

let of_segments segs =
  let a = Array.of_list segs in
  Array.sort (fun s1 s2 -> compare s1.seg_base s2.seg_base) a;
  { segments = a }

let of_instrs ~base instrs = { segments = [| make_segment ~base instrs |] }

(** Concatenate the segments of several programs (e.g. the app and libc
    images of one process) into a single code store. *)
let merge ts =
  of_segments (List.concat_map (fun t -> Array.to_list t.segments) ts)

(** [(segment index, instruction index)] of an instruction address, or
    [None] when the address is outside every segment or misaligned. *)
let locate t pc =
  let segs = t.segments in
  let n = Array.length segs in
  let rec go i =
    if i >= n then None
    else
      let s = Array.unsafe_get segs i in
      if pc >= s.seg_base && pc < s.seg_limit then
        if (pc - s.seg_base) mod Isa.instr_size <> 0 then None
        else Some (i, (pc - s.seg_base) / Isa.instr_size)
      else go (i + 1)
  in
  go 0

(** The instruction at [pc], or [None] (unmapped or misaligned — the CPU
    turns that into an [Exec_violation]). *)
let fetch t pc =
  let segs = t.segments in
  let n = Array.length segs in
  let rec go i =
    if i >= n then None
    else
      let s = Array.unsafe_get segs i in
      if pc >= s.seg_base && pc < s.seg_limit then
        let off = pc - s.seg_base in
        if off mod Isa.instr_size <> 0 then None
        else Some (Array.unsafe_get s.seg_instrs (off / Isa.instr_size))
      else go (i + 1)
  in
  go 0

(** Iterate every (address, instruction) pair, segments in base order. *)
let iteri f t =
  Array.iter
    (fun s ->
      Array.iteri
        (fun i ins -> f (s.seg_base + (i * Isa.instr_size)) ins)
        s.seg_instrs)
    t.segments

(** Total number of decoded instructions. *)
let length t =
  Array.fold_left (fun acc s -> acc + Array.length s.seg_instrs) 0 t.segments
