(** Dynamic backward slicing.

    During replay every executed instruction becomes a node in a dependence
    graph: data dependences through the last writer of each register and
    memory byte, flag dependences through the last comparison, and control
    dependences through the last branch. The backward slice from the
    faulting instruction is the set of dynamic instructions that influenced
    it — a superset of what taint analysis sees (it includes pointer and
    control-flow influence), which is why it can act as a sanity check on
    every other analysis (Section 3.2). Every dependence names an earlier
    node, so each slice, backward or forward, is one linear sweep over the
    graph. *)

module Int_set = Set.Make (Int)

(* The last-writer map is paged like {!Vm.Memory} (and {!Taint}'s shadow):
   one [int array] of last-writer sequence numbers per touched 4 KiB page,
   -1 meaning "never written". A replay's working set is a handful of hot
   pages — stack, globals, heap — touched in alternation, so a small
   direct-mapped TLB (caching absent pages as [no_page] too) keeps the
   per-byte cost to an array index instead of a hashtable probe. *)
let page_bits = Vm.Memory.page_bits
let page_size = Vm.Memory.page_size
let page_mask = page_size - 1
let no_page : int array = [||]
let tlb_size = 16

(* The graph is flat, in CSR form. Node [s] (its dynamic instruction
   number, dense from 0) is one word [nodes.(s)] packing the node's pc (low
   32 bits) with the offset of its dependences in [deps] (high bits): its
   data and flag dependences are [deps.(dep_lo s) .. deps.(dep_lo (s + 1)
   - 1)], each an earlier node, deduplicated. Entry [nodes.(count)] is the
   sentinel holding the next node's offset. Both are unboxed [int] arrays,
   sized up front from the replay window when it is known ({!create}), so
   recording an instruction allocates nothing. The control dependence
   every node has — the last branch before it — is not stored: [anchors]
   marks the nodes that set it, so it is the nearest marked node below
   [s]. Receive (network-input source) nodes are rare and live in a short
   list. *)
type t = {
  proc : Osim.Process.t;
  mutable count : int;               (** nodes recorded *)
  mutable nodes : int array;         (** node -> deps offset [lsl 32] [lor] pc *)
  mutable deps : int array;
  mutable dlen : int;                (** [deps] used; = [dep_lo count] *)
  mutable anchors : Bytes.t;         (** node -> non-zero if it sets [last_branch] *)
  mutable recvs : (int * int) list;  (** [(seq, msg_id)] receive nodes, newest first *)
  last_reg : int array;              (** reg -> seq of last writer *)
  last_mem : (int, int array) Hashtbl.t;
      (** page index -> per-byte seq of last writer (-1 = never) *)
  lm_tlb_idx : int array;            (** TLB slot -> page index cached, -1 = none *)
  lm_tlb : int array array;          (** TLB slot -> page, [no_page] if absent *)
  mutable last_flags : int;
  mutable last_branch : int;
}

(* Most stored dependences one node can have: four registers (a syscall's
   arguments), four memory bytes, the flags. *)
let max_deps = 9

(* A graph for a replay of [window] instructions, clamped to [fuel]:
   sized once, with room for 3/2 dependences per node (the exploit
   replays record 1.27–1.32), so a faithful replay never grows it.
   Without a window it starts small. Either way [reserve] doubles past
   the size. *)
let create ?window ~fuel proc =
  let n =
    match window with Some w -> max 0 (min w fuel) + 2 | None -> 4096
  in
  {
    proc;
    count = 0;
    nodes = Array.make n 0;
    deps = Array.make (max max_deps (n + (n / 2))) 0;
    dlen = 0;
    anchors = Bytes.make n '\000';
    recvs = [];
    last_reg = Array.make Vm.Isa.num_regs (-1);
    last_mem = Hashtbl.create 64;
    lm_tlb_idx = Array.make tlb_size (-1);
    lm_tlb = Array.make tlb_size no_page;
    last_flags = -1;
    last_branch = -1;
  }

(* The page of index [idx], or [no_page] when it was never written. *)
let lm_lookup st idx =
  let j = idx land (tlb_size - 1) in
  if Array.unsafe_get st.lm_tlb_idx j = idx then Array.unsafe_get st.lm_tlb j
  else begin
    let pg =
      match Hashtbl.find_opt st.last_mem idx with Some pg -> pg | None -> no_page
    in
    Array.unsafe_set st.lm_tlb_idx j idx;
    Array.unsafe_set st.lm_tlb j pg;
    pg
  end

(* Write side: the page for [addr], materialized on first write. *)
let lm_page st addr =
  let idx = addr lsr page_bits in
  let pg = lm_lookup st idx in
  if pg != no_page then pg
  else begin
    let pg = Array.make page_size (-1) in
    Hashtbl.add st.last_mem idx pg;
    Array.unsafe_set st.lm_tlb (idx land (tlb_size - 1)) pg;
    pg
  end

(* Read side: seq of the last writer of [addr], -1 when never written. *)
let lm_get st addr =
  let pg = lm_lookup st (addr lsr page_bits) in
  if pg == no_page then -1 else Array.unsafe_get pg (addr land page_mask)

let lm_set st addr seq =
  Array.unsafe_set (lm_page st addr) (addr land page_mask) seq

(* Range fill (recv buffers and word writes): whole spans per page. *)
let lm_fill st addr len seq =
  let a = ref addr and remaining = ref len in
  while !remaining > 0 do
    let pg = lm_page st !a in
    let off = !a land page_mask in
    let n = min !remaining (page_size - off) in
    Array.fill pg off n seq;
    a := !a + n;
    remaining := !remaining - n
  done

let lm_set_word st addr seq =
  let off = addr land page_mask in
  if off <= page_size - 4 then begin
    let pg = lm_page st addr in
    Array.unsafe_set pg off seq;
    Array.unsafe_set pg (off + 1) seq;
    Array.unsafe_set pg (off + 2) seq;
    Array.unsafe_set pg (off + 3) seq
  end
  else lm_fill st addr 4 seq

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let grow (a : int array) len =
  let b = Array.make len 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let pc_bits = 32
let pc_mask = (1 lsl pc_bits) - 1

(* Offset of node [s]'s first dependence in a [nodes]-shaped array. *)
let dep_lo nodes s = Array.unsafe_get nodes s lsr pc_bits
let pc_of nodes s = Array.unsafe_get nodes s land pc_mask

(* Room for one more node (and the sentinel after it) with [max_deps]
   dependences. *)
let reserve st =
  if st.count + 1 >= Array.length st.nodes then begin
    st.nodes <- grow st.nodes (2 * Array.length st.nodes);
    let a = Bytes.make (Array.length st.nodes) '\000' in
    Bytes.blit st.anchors 0 a 0 st.count;
    st.anchors <- a
  end;
  if st.dlen + max_deps > Array.length st.deps then
    st.deps <- grow st.deps (2 * Array.length st.deps)

let rec present (d : int array) (s : int) i start =
  i >= start && (Array.unsafe_get d i = s || present d s (i - 1) start)

(* Add [s] to the open node's dependences: skipped when negative (no
   writer) or already listed — a node has at most [max_deps], so the
   in-place linear dedupe beats any set. *)
let add_dep st s =
  if s >= 0 then begin
    let d = st.deps and n = st.dlen in
    if not (present d s (n - 1) (dep_lo st.nodes st.count)) then begin
      Array.unsafe_set d n s;
      st.dlen <- n + 1
    end
  end

let dep_reg st i = add_dep st (Array.unsafe_get st.last_reg i)

let dep_mem st addr size =
  for i = 0 to size - 1 do
    add_dep st (lm_get st (addr + i))
  done

(* [dep_mem st addr 4] with one page probe when the word sits inside a
   page; bytes written together (the common case) skip the dedupe scan. *)
let dep_word st addr =
  let off = addr land page_mask in
  if off <= page_size - 4 then begin
    let pg = lm_lookup st (addr lsr page_bits) in
    if pg != no_page then begin
      let a = Array.unsafe_get pg off in
      add_dep st a;
      let b = Array.unsafe_get pg (off + 1) in
      if b <> a then add_dep st b;
      let c = Array.unsafe_get pg (off + 2) in
      if c <> a then add_dep st c;
      let d = Array.unsafe_get pg (off + 3) in
      if d <> a then add_dep st d
    end
  end
  else dep_mem st addr 4

(* Close the open node: it executed at [pc]; returns its seq. *)
let close_node st pc =
  let seq = st.count in
  Array.unsafe_set st.nodes seq (Array.unsafe_get st.nodes seq lor pc);
  Array.unsafe_set st.nodes (seq + 1) (st.dlen lsl pc_bits);
  st.count <- seq + 1;
  seq

(* Node [seq] is a control-dependence anchor: later nodes depend on it. *)
let anchor st seq =
  Bytes.unsafe_set st.anchors seq '\001';
  st.last_branch <- seq

(* The generic recorder, a post-hook on the instrumented path: it reads
   dependences off the effect record. The fused loop below records the
   same node for every instruction [exec_fast] runs, and leaves the rest
   (syscalls — receives included — and faults) to this hook. *)
let on_effect st (eff : Vm.Event.effect_) =
  reserve st;
  List.iter (fun r -> dep_reg st (Vm.Isa.reg_index r)) eff.e_regs_read;
  List.iter
    (fun (a : Vm.Event.access) -> dep_mem st a.a_addr a.a_size)
    eff.e_mem_reads;
  if eff.e_flags_read then add_dep st st.last_flags;
  let seq = close_node st eff.e_pc in
  (* Update writer maps. *)
  if eff.e_rw_count >= 1 then begin
    st.last_reg.(Vm.Isa.reg_index eff.e_rw0) <- seq;
    if eff.e_rw_count >= 2 then st.last_reg.(Vm.Isa.reg_index eff.e_rw1) <- seq
  end;
  List.iter
    (fun (a : Vm.Event.access) -> lm_fill st a.a_addr a.a_size seq)
    eff.e_mem_writes;
  (match eff.e_sys with
  | Vm.Event.Io_recv { buf; len; msg_id } ->
    lm_fill st buf len seq;
    st.recvs <- (seq, msg_id) :: st.recvs
  | _ -> ());
  if eff.e_flags_written then st.last_flags <- seq;
  match eff.e_ctrl with
  | Vm.Event.Jump -> (
    (* Conditional jumps (and taken unconditional ones reached through a
       condition) are control-dependence anchors. *)
    match eff.e_instr with
    | Vm.Isa.Jcc _ -> anchor st seq
    | _ -> ())
  | Vm.Event.Ret_to | Vm.Event.Call_to -> anchor st seq
  | Vm.Event.Next -> (
    match eff.e_instr with
    | Vm.Isa.Jcc _ -> anchor st seq  (* not-taken branch still governs *)
    | _ -> ())
  | Vm.Event.Sys | Vm.Event.Stop -> ()

(* ------------------------------------------------------------------ *)
(* Fused replay loop                                                   *)
(* ------------------------------------------------------------------ *)

(* When the slicer is the only instrumentation, the replay skips the
   effect record: machine semantics come from [Vm.Cpu.exec_fast] (never
   re-implemented here) and [record] derives the node straight from the
   decoded instruction, mirroring {!on_effect} dependence for dependence —
   the differential suite holds the two to account. Addresses are read
   before [exec_fast] runs; dependences and writer updates are applied only
   if it succeeds. When it declines (syscalls, anything that would fault)
   the instruction re-runs on the instrumented path, where the registered
   [on_effect] post-hook records it — or, for a fault, nothing does,
   matching post-commit hook semantics. *)

let slow cpu = ignore (Vm.Cpu.step cpu : Vm.Event.effect_)

let sp_idx = Vm.Isa.reg_index Vm.Isa.SP

(* Register [r] (an index) was last written by node [seq]. *)
let wrote st r seq = Array.unsafe_set st.last_reg r seq

(* The address [instr] touches, read before it executes (0 if none). *)
let pre_addr regs (instr : Vm.Isa.instr) =
  let open Vm.Isa in
  match instr with
  | Load (_, r, off) | Loadb (_, r, off) | Store (r, off, _) | Storeb (r, off, _) ->
    to_u32 (Array.unsafe_get regs (reg_index r) + off)
  | Push _ | Call _ | CallInd _ -> to_u32 (Array.unsafe_get regs sp_idx - 4)
  | Pop _ | Ret -> Array.unsafe_get regs sp_idx
  | _ -> 0

(* Run [instr] at [pc] through [exec_fast] and record its node, adding
   dependences in the order {!on_effect} does; [false] (nothing recorded,
   nothing changed) when [exec_fast] declines. *)
let record st cpu pc (instr : Vm.Isa.instr) =
  let open Vm.Isa in
  let addr = pre_addr cpu.Vm.Cpu.regs instr in
  Vm.Cpu.exec_fast cpu instr
  && begin
    reserve st;
    (match instr with
    | Mov (rd, Reg rs) ->
      dep_reg st (reg_index rs);
      wrote st (reg_index rd) (close_node st pc)
    | Mov (rd, _) -> wrote st (reg_index rd) (close_node st pc)
    | Bin (_, rd, src) ->
      dep_reg st (reg_index rd);
      (match src with Reg r -> dep_reg st (reg_index r) | Imm _ | Sym _ -> ());
      wrote st (reg_index rd) (close_node st pc)
    | Not rd | Neg rd ->
      dep_reg st (reg_index rd);
      wrote st (reg_index rd) (close_node st pc)
    | Load (rd, rs, _) ->
      dep_reg st (reg_index rs);
      dep_word st addr;
      wrote st (reg_index rd) (close_node st pc)
    | Loadb (rd, rs, _) ->
      dep_reg st (reg_index rs);
      add_dep st (lm_get st addr);
      wrote st (reg_index rd) (close_node st pc)
    | Store (rb, _, rs) ->
      dep_reg st (reg_index rb);
      dep_reg st (reg_index rs);
      lm_set_word st addr (close_node st pc)
    | Storeb (rb, _, rs) ->
      dep_reg st (reg_index rb);
      dep_reg st (reg_index rs);
      lm_set st addr (close_node st pc)
    | Push op ->
      dep_reg st sp_idx;
      (match op with Reg r -> dep_reg st (reg_index r) | Imm _ | Sym _ -> ());
      let seq = close_node st pc in
      lm_set_word st addr seq;
      wrote st sp_idx seq
    | Pop rd ->
      dep_reg st sp_idx;
      dep_word st addr;
      let seq = close_node st pc in
      wrote st (reg_index rd) seq;
      wrote st sp_idx seq
    | Cmp (r, op) ->
      dep_reg st (reg_index r);
      (match op with Reg r2 -> dep_reg st (reg_index r2) | Imm _ | Sym _ -> ());
      st.last_flags <- close_node st pc
    | Jcc _ ->
      add_dep st st.last_flags;
      anchor st (close_node st pc)
    | Call _ | CallInd _ ->
      (match instr with CallInd r -> dep_reg st (reg_index r) | _ -> ());
      dep_reg st sp_idx;
      let seq = close_node st pc in
      lm_set_word st addr seq;
      wrote st sp_idx seq;
      anchor st seq
    | Ret ->
      dep_reg st sp_idx;
      dep_word st addr;
      let seq = close_node st pc in
      wrote st sp_idx seq;
      anchor st seq
    | Jmp _ | Halt | Nop | Syscall _ (* [exec_fast] declines syscalls *) ->
      ignore (close_node st pc : int));
    true
  end

(* Segment-pinned inner loop (the shape of the interpreter's own fast
   dispatch): while the pc stays inside [s], decode by direct indexing.
   Returns the remaining fuel — unchanged iff no progress was made. *)
let rec fused_seg st cpu s fuel =
  if cpu.Vm.Cpu.halted || fuel <= 0 then fuel
  else
    let pc = cpu.Vm.Cpu.pc in
    let off = pc - s.Vm.Program.seg_base in
    if off < 0 || pc >= s.Vm.Program.seg_limit then fuel (* left the segment *)
    else if off land 3 <> 0 then fuel (* misaligned: slow path faults *)
    else begin
      if not (record st cpu pc (Array.unsafe_get s.Vm.Program.seg_instrs (off lsr 2)))
      then slow cpu;
      fused_seg st cpu s (fuel - 1)
    end

(* Replay with the recorder attached: [fused_seg] when nothing else
   listens, the generic hooked interpreter otherwise (so foreign hooks keep
   firing). *)
let replay st cpu fuel =
  Vm.Cpu.run_fused ~fuel cpu ~hook:(on_effect st) (fun _ s n -> fused_seg st cpu s n)

(* Dependences of the *faulting* instruction, which never became a node
   because the fault pre-empted execution. Reconstructed from the machine
   state: the registers it read, and for a faulting stack read ([Ret],
   [Pop]) the word at SP. A stack write that faults ([Push], [Call], a
   [CallInd] whose target was valid) depends on SP, so a stack-exhaustion
   fault slices back to whatever moved SP out of the stack. *)
let fault_deps st =
  let cpu = st.proc.Osim.Process.cpu in
  let pc = cpu.Vm.Cpu.pc in
  let acc = ref [] in
  let add s = if s >= 0 then acc := s :: !acc in
  let add_reg r = add st.last_reg.(Vm.Isa.reg_index r) in
  let add_mem addr size =
    for i = 0 to size - 1 do
      add (lm_get st (addr + i))
    done
  in
  (match Vm.Program.fetch cpu.Vm.Cpu.code pc with
  | Some (Vm.Isa.Ret | Vm.Isa.Pop _) ->
    add_reg Vm.Isa.SP;
    add_mem (Vm.Cpu.get_reg cpu Vm.Isa.SP) 4
  | Some (Vm.Isa.Push op) -> (
    add_reg Vm.Isa.SP;
    match op with Vm.Isa.Reg r -> add_reg r | _ -> ())
  | Some (Vm.Isa.Call _) -> add_reg Vm.Isa.SP
  | Some (Vm.Isa.CallInd r) ->
    add_reg r;
    if Vm.Layout.valid_code cpu.Vm.Cpu.layout (Vm.Cpu.get_reg cpu r) then
      add_reg Vm.Isa.SP
  | Some (Vm.Isa.Load (_, rs, _) | Vm.Isa.Loadb (_, rs, _)) -> add_reg rs
  | Some (Vm.Isa.Store (rb, _, rs) | Vm.Isa.Storeb (rb, _, rs)) ->
    add_reg rb;
    add_reg rs
  | Some (Vm.Isa.Bin (_, rd, src)) -> (
    add_reg rd;
    match src with Vm.Isa.Reg r -> add_reg r | _ -> ())
  | _ -> ());
  add st.last_branch;
  (pc, !acc)

(* ------------------------------------------------------------------ *)
(* Slice sweeps                                                        *)
(* ------------------------------------------------------------------ *)

(* Static pcs of a slice: one mark byte per instruction of each code
   segment, with the last segment hit cached (a slice stays mostly inside
   one image), folded into a set once at the end. *)
type pc_marks = {
  segs : Vm.Program.segment array;
  bits : Bytes.t array;
  mutable last : int;
}

let pc_marks st =
  let segs = st.proc.Osim.Process.cpu.Vm.Cpu.code.Vm.Program.segments in
  {
    segs;
    bits = Array.map (fun s -> Bytes.make (Array.length s.Vm.Program.seg_instrs) '\000') segs;
    last = 0;
  }

(* Every node executed, so its pc lies in some segment. *)
let rec seg_of segs pc i =
  let s = segs.(i) in
  if pc >= s.Vm.Program.seg_base && pc < s.Vm.Program.seg_limit then i
  else seg_of segs pc (i + 1)

let mark_pc m pc =
  let s = m.segs.(m.last) in
  if pc < s.Vm.Program.seg_base || pc >= s.Vm.Program.seg_limit then
    m.last <- seg_of m.segs pc 0;
  Bytes.unsafe_set m.bits.(m.last)
    ((pc - m.segs.(m.last).Vm.Program.seg_base) lsr 2)
    '\001'

let pcs_of m =
  let acc = ref [] in
  for i = Array.length m.segs - 1 downto 0 do
    let b = m.bits.(i) and base = m.segs.(i).Vm.Program.seg_base in
    for k = Bytes.length b - 1 downto 0 do
      if Bytes.unsafe_get b k <> '\000' then acc := (base + (k * Vm.Isa.instr_size)) :: !acc
    done
  done;
  Int_set.of_list !acc

(* Every stored dependence, and every node's control dependence, is an
   earlier node, so a slice is one linear sweep: a node's membership is
   final when the sweep reaches it, with no stack and no transposed graph.
   A sweep marks its members in one byte per node, starting from [seeds]. *)
let sweep_init st seeds =
  let n = st.count in
  let in_slice = Bytes.make (max 1 n) '\000' in
  List.iter
    (fun s -> if s >= 0 && s < n then Bytes.unsafe_set in_slice s '\001')
    seeds;
  in_slice

type summary = {
  s_nodes : int;              (** dynamic instructions in the window *)
  s_slice_size : int;         (** dynamic instructions in the slice *)
  s_pcs : Int_set.t;          (** static instructions in the slice *)
  s_msgs : Int_set.t;         (** input messages the fault depends on *)
  s_fault_pc : int;
}

(* Sweep backward from [roots], descending: a node joins when a later
   member names it. A member's control dependence is the first anchor
   below it, which then joins and depends on the next anchor down, so
   every anchor below the highest member joins. *)
let backward st ~fault_pc ~roots : summary =
  let m = pc_marks st in
  let in_slice = sweep_init st roots and size = ref 0 and below = ref false in
  for s = st.count - 1 downto 0 do
    if !below && Bytes.unsafe_get st.anchors s <> '\000' then
      Bytes.unsafe_set in_slice s '\001';
    if Bytes.unsafe_get in_slice s <> '\000' then begin
      incr size;
      mark_pc m (pc_of st.nodes s);
      for e = dep_lo st.nodes s to dep_lo st.nodes (s + 1) - 1 do
        Bytes.unsafe_set in_slice (Array.unsafe_get st.deps e) '\001'
      done;
      below := true
    end
  done;
  let msgs =
    List.fold_left
      (fun acc (s, msg) ->
        if Bytes.get in_slice s <> '\000' then Int_set.add msg acc else acc)
      Int_set.empty st.recvs
  in
  {
    s_nodes = st.count;
    s_slice_size = !size;
    s_pcs = Int_set.add fault_pc (pcs_of m);
    s_msgs = msgs;
    s_fault_pc = fault_pc;
  }

type result = {
  sl_summary : summary;
  sl_instructions : int;
}

(** Verdict check: does the slice contain (verify) an instruction another
    analysis blamed? The slice is the ground truth: a claim outside it is
    wrong. *)
let verifies (s : summary) pc = Int_set.mem pc s.s_pcs

(* ------------------------------------------------------------------ *)
(* Forward slicing                                                     *)
(* ------------------------------------------------------------------ *)

(** A forward slice: every dynamic instruction influenced by a starting
    set — e.g. everything a particular network input could have touched
    ("a forward slice from the exploit input would reveal all instructions
    and memory potentially tainted by it", Section 3.2). Computed from the
    same dependence graph, swept in the other direction. *)
type forward = {
  fw_size : int;          (** dynamic instructions influenced *)
  fw_pcs : Int_set.t;     (** static instructions influenced *)
}

(** Result of a replay that keeps the dependence graph for further queries
    (forward slices, per-message influence). *)
type session = {
  graph : t;
  outcome : Vm.Cpu.outcome;
  backward : summary;
}

(** Attach the graph collector, run the replay, slice backward from the
    fault (or from the final instruction if the replay ended cleanly), and
    keep the graph. *)
let run_session ?(fuel = 20_000_000) ?window (proc : Osim.Process.t) : session =
  let st = create ?window ~fuel proc in
  let outcome = replay st proc.Osim.Process.cpu fuel in
  let fault_pc, roots =
    match outcome with
    | Vm.Cpu.Faulted _ -> fault_deps st
    | _ ->
      let pc = proc.Osim.Process.cpu.Vm.Cpu.pc in
      (pc, if st.count = 0 then [] else [ st.count - 1 ])
  in
  { graph = st; outcome; backward = backward st ~fault_pc ~roots }

(** {!run_session}, keeping only the backward slice. *)
let run ?fuel ?window (proc : Osim.Process.t) : result =
  let s = run_session ?fuel ?window proc in
  { sl_summary = s.backward; sl_instructions = s.graph.count }

(* Does one of [deps.(e) .. deps.(hi - 1)] name a member? *)
let rec names_member st in_slice e hi =
  e < hi
  && (Bytes.unsafe_get in_slice (Array.unsafe_get st.deps e) <> '\000'
     || names_member st in_slice (e + 1) hi)

(** Everything influenced by the given input message: the forward slice
    seeded at that message's receive events, swept ascending. A node joins
    when it names a member or its control dependence, the last anchor
    below it, is one; once an anchor joins, every later node does. *)
let forward_from_message (session : session) ~msg_id : forward =
  let st = session.graph in
  let seeds =
    List.filter_map (fun (s, m) -> if m = msg_id then Some s else None) st.recvs
  in
  let m = pc_marks st in
  let in_slice = sweep_init st seeds and size = ref 0 and ctrl = ref false in
  for s = 0 to st.count - 1 do
    let joins =
      !ctrl
      || Bytes.unsafe_get in_slice s <> '\000'
      || names_member st in_slice (dep_lo st.nodes s) (dep_lo st.nodes (s + 1))
    in
    if joins then begin
      Bytes.unsafe_set in_slice s '\001';
      incr size;
      mark_pc m (pc_of st.nodes s)
    end;
    if Bytes.unsafe_get st.anchors s <> '\000' then ctrl := joins
  done;
  { fw_size = !size; fw_pcs = pcs_of m }
