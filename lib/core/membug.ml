(** Dynamic memory-bug detection, attached during sandboxed replay.

    Detects the three bug classes of Section 3.2 — stack smashing (writes
    to saved return-address slots, with pre-existing frames inferred from
    the frame pointer), heap overflow (stores outside any live chunk, with
    pre-checkpoint buffers inferred from the heap image), and double frees
    (calls to [free] on an already-freed chunk) — and attributes each to
    the offending instruction, which is what the refined VSEFs are built
    from. *)

type finding =
  | Stack_smash of { store_pc : int; slot_addr : int }
  | Heap_overflow of { store_pc : int; addr : int }
  | Double_free of { call_pc : int; ptr : int }
  | Dangling_write of { store_pc : int; addr : int }

type report = {
  m_findings : finding list;  (** in detection order *)
  m_fault : Vm.Event.fault option;  (** the replayed crash, if it recurred *)
  m_instructions : int;  (** dynamic instructions monitored *)
}

let finding_pc = function
  | Stack_smash { store_pc; _ }
  | Heap_overflow { store_pc; _ }
  | Dangling_write { store_pc; _ } -> store_pc
  | Double_free { call_pc; _ } -> call_pc

let finding_to_string ~describe = function
  | Stack_smash { store_pc; slot_addr } ->
    Printf.sprintf "Stack smashing by %s (return-address slot 0x%x)"
      (describe store_pc) slot_addr
  | Heap_overflow { store_pc; addr } ->
    Printf.sprintf "Heap buffer overflow at %s (store to 0x%x)"
      (describe store_pc) addr
  | Double_free { call_pc; ptr } ->
    Printf.sprintf "Double free by %s (chunk 0x%x)" (describe call_pc) ptr
  | Dangling_write { store_pc; addr } ->
    Printf.sprintf "Write to freed chunk by %s (0x%x)" (describe store_pc) addr

(** Derive the refined VSEF a finding justifies. [proc] supplies the image
    bases for making the check relocatable. *)
let vsef_of_finding ~app ~proc = function
  | Stack_smash { store_pc; _ } ->
    Some
      {
        Vsef.v_name = "store-guard";
        v_app = app;
        v_check = Vsef.Store_guard { store = Vsef.loc_of_pc proc store_pc };
        v_origin = Vsef.From_membug;
      }
  | Heap_overflow { store_pc; _ } | Dangling_write { store_pc; _ } ->
    Some
      {
        Vsef.v_name = "heap-bounds-refined";
        v_app = app;
        v_check =
          Vsef.Heap_bounds
            { store = Vsef.loc_of_pc proc store_pc; caller = None;
              caller_range = None };
        v_origin = Vsef.From_membug;
      }
  | Double_free { call_pc; _ } ->
    Some
      {
        Vsef.v_name = "double-free-site";
        v_app = app;
        v_check = Vsef.Double_free_site { call = Vsef.loc_of_pc proc call_pc };
        v_origin = Vsef.From_membug;
      }

(* Live chunks as an interval tree: an AVL tree keyed by user pointer
   whose nodes also carry the largest chunk end in their subtree, so "is
   [addr] inside some live chunk?" follows one root-to-leaf path. Exact
   even when chunks overlap, as stale ones inferred from the heap image
   can. Allocations and frees (syscalls) update it; stores only query. *)
module Chunks = struct
  type t =
    | Empty
    | Node of { l : t; ptr : int; size : int; r : t; h : int; hi : int }

  let height = function Empty -> 0 | Node n -> n.h
  let hi = function Empty -> min_int | Node n -> n.hi

  let node l ptr size r =
    Node
      { l; ptr; size; r;
        h = 1 + max (height l) (height r);
        hi = max (ptr + size) (max (hi l) (hi r)) }

  (* Stdlib [Map]'s rebalancing: subtrees differ in height by at most 3. *)
  let bal l ptr size r =
    let hl = height l and hr = height r in
    if hl > hr + 1 then
      match l with
      | Node { l = ll; ptr = lp; size = ls; r = lr; _ } -> (
        if height ll >= height lr then node ll lp ls (node lr ptr size r)
        else
          match lr with
          | Node { l = lrl; ptr = lrp; size = lrs; r = lrr; _ } ->
            node (node ll lp ls lrl) lrp lrs (node lrr ptr size r)
          | Empty -> assert false)
      | Empty -> assert false
    else if hr > hl + 1 then
      match r with
      | Node { l = rl; ptr = rp; size = rs; r = rr; _ } -> (
        if height rr >= height rl then node (node l ptr size rl) rp rs rr
        else
          match rl with
          | Node { l = rll; ptr = rlp; size = rls; r = rlr; _ } ->
            node (node l ptr size rll) rlp rls (node rlr rp rs rr)
          | Empty -> assert false)
      | Empty -> assert false
    else node l ptr size r

  (* Insert, replacing the size of an existing [ptr]. *)
  let rec add ptr size = function
    | Empty -> node Empty ptr size Empty
    | Node n ->
      if ptr = n.ptr then node n.l ptr size n.r
      else if ptr < n.ptr then bal (add ptr size n.l) n.ptr n.size n.r
      else bal n.l n.ptr n.size (add ptr size n.r)

  let rec remove_min = function
    | Empty -> assert false
    | Node { l = Empty; r; _ } -> r
    | Node n -> bal (remove_min n.l) n.ptr n.size n.r

  let rec min_node = function
    | Node { l = Empty; ptr; size; _ } -> (ptr, size)
    | Node n -> min_node n.l
    | Empty -> assert false

  let rec remove ptr = function
    | Empty -> Empty
    | Node n ->
      if ptr = n.ptr then (
        match (n.l, n.r) with
        | Empty, t | t, Empty -> t
        | l, r ->
          let p, s = min_node r in
          bal l p s (remove_min r))
      else if ptr < n.ptr then bal (remove ptr n.l) n.ptr n.size n.r
      else bal n.l n.ptr n.size (remove ptr n.r)

  (* Does some chunk [ptr, ptr + size) contain [addr]? When the left
     subtree reaches past [addr] only it can: if none of its chunks
     contains [addr], the one ending past it starts past it, and so does
     everything to its right. *)
  let rec covers t addr =
    match t with
    | Empty -> false
    | Node n ->
      (n.ptr <= addr && addr < n.ptr + n.size)
      || if hi n.l > addr then covers n.l addr
         else n.ptr <= addr && covers n.r addr
end

module Int_set = Set.Make (Int)

type state = {
  proc : Osim.Process.t;
  mutable findings : finding list;
  reported : (int * int, unit) Hashtbl.t;
      (** (kind tag, pc) pairs already reported — one finding per site *)
  (* Live return-address slots, a set of addresses. Address keying (rather
     than a LIFO) self-corrects when the detector attaches mid-execution:
     a returning frame always clears exactly its own slot. A slot inside
     the stack is a non-zero byte of [slots] (indexed from [stack_lo]);
     the rare one outside it (a pivoted stack pointer, a frame pointer at
     the top edge) lives in [far_slots]. *)
  slots : Bytes.t;
  stack_lo : int;
  far_slots : (int, unit) Hashtbl.t;
  mutable live : Chunks.t;  (** live chunks: user ptr -> size *)
  mutable freed : Int_set.t;  (** user ptrs of freed chunks *)
  heap_lo : int;
      (** heap stores below this are allocator bookkeeping (legitimate
          when the libc wrappers make them) or outside the heap *)
  heap_hi : int;
  free_entry : int;  (** address of libc [free] *)
}

let create (proc : Osim.Process.t) =
  let layout = proc.layout in
  {
    proc;
    findings = [];
    reported = Hashtbl.create 16;
    slots =
      Bytes.make (layout.Vm.Layout.stack_top - layout.Vm.Layout.stack_limit) '\000';
    stack_lo = layout.Vm.Layout.stack_limit;
    far_slots = Hashtbl.create 8;
    live = Chunks.Empty;
    freed = Int_set.empty;
    heap_lo = max layout.Vm.Layout.heap_base (Vm.Alloc.arena_start layout);
    heap_hi = layout.Vm.Layout.heap_max;
    free_entry = Vm.Asm.symbol proc.lib_image "free";
  }

let set_slot st s v =
  let i = s - st.stack_lo in
  if i >= 0 && i < Bytes.length st.slots then
    Bytes.unsafe_set st.slots i (if v then '\001' else '\000')
  else if v then Hashtbl.replace st.far_slots s ()
  else Hashtbl.remove st.far_slots s

let is_slot st s =
  let i = s - st.stack_lo in
  if i >= 0 && i < Bytes.length st.slots then Bytes.unsafe_get st.slots i <> '\000'
  else Hashtbl.length st.far_slots > 0 && Hashtbl.mem st.far_slots s

let rec first_slot st s last =
  if s > last then -1 else if is_slot st s then s else first_slot st (s + 1) last

(* The lowest live ret slot a write of [size] bytes at [addr] overlaps, or
   -1. Slot [s] covers [s, s + 4), so the candidates are [addr - 3 ..
   addr + size - 1]: at most seven probes per store, lowest first. *)
let hit_slot st addr size = first_slot st (addr - 3) (addr + size - 1)

let seed_from_image st =
  (* Pre-existing frames from the frame-pointer chain. *)
  let p = st.proc in
  let layout = p.layout in
  let rec walk fp n =
    if
      n > 64
      || fp < layout.Vm.Layout.stack_limit
      || fp >= layout.Vm.Layout.stack_top
    then ()
    else begin
      set_slot st (fp + 4) true;
      walk (Vm.Memory.load_word p.mem fp) (n + 1)
    end
  in
  walk (Vm.Cpu.get_reg p.cpu Vm.Isa.FP) 0;
  (* Pre-existing buffers from the heap image. *)
  List.iter
    (fun (c : Vm.Alloc.chunk) ->
      match c.c_state with
      | Vm.Alloc.Chunk_alloc -> st.live <- Chunks.add c.c_ptr c.c_size st.live
      | Vm.Alloc.Chunk_freed -> st.freed <- Int_set.add c.c_ptr st.freed
      | Vm.Alloc.Chunk_corrupt _ -> ())
    (Vm.Alloc.chunks p.mem p.layout)

(* Is [addr] within 8 bytes of a freed chunk's user pointer, i.e. is some
   freed [ptr] in [(addr - 8, addr + 8]]? *)
let in_freed_chunk st addr =
  match Int_set.find_first_opt (fun ptr -> ptr > addr - 8) st.freed with
  | Some ptr -> ptr <= addr + 8
  | None -> false

(* One finding per (bug kind, instruction): the same overflowing store
   fires once, not once per byte. *)
let report st kind_tag pc f =
  if not (Hashtbl.mem st.reported (kind_tag, pc)) then begin
    Hashtbl.replace st.reported (kind_tag, pc) ();
    st.findings <- f :: st.findings
  end

(* The checks, shared by the hooked and the fused path. *)

(* Stack smashing: a write (other than a call's own push) into a live
   return-address slot. *)
let check_smash st pc addr size =
  let slot = hit_slot st addr size in
  if slot >= 0 then report st 0 pc (Stack_smash { store_pc = pc; slot_addr = slot })

(* Heap overflow / dangling write: a store into the heap that lands in no
   live chunk. *)
let check_heap st pc addr =
  if addr >= st.heap_lo && addr < st.heap_hi && not (Chunks.covers st.live addr)
  then
    if in_freed_chunk st addr then
      report st 1 pc (Dangling_write { store_pc = pc; addr })
    else report st 2 pc (Heap_overflow { store_pc = pc; addr })

(* A call pushed its return address at [new_sp]: a new live slot, and a
   double free when the callee is [free] and its argument (just above the
   slot) an already-freed chunk. *)
let on_call st pc ~target ~new_sp =
  set_slot st new_sp true;
  if target = st.free_entry then begin
    let ptr = Vm.Memory.load_word st.proc.Osim.Process.mem (new_sp + 4) in
    if ptr <> 0 && Int_set.mem ptr st.freed then
      report st 3 pc (Double_free { call_pc = pc; ptr })
  end

let on_effect st (eff : Vm.Event.effect_) =
  (match eff.e_ctrl with
  | Vm.Event.Call_to -> ()
  | _ ->
    List.iter
      (fun (a : Vm.Event.access) -> check_smash st eff.e_pc a.a_addr a.a_size)
      eff.e_mem_writes);
  (match eff.e_instr with
  | Vm.Isa.Store _ | Vm.Isa.Storeb _ ->
    List.iter
      (fun (a : Vm.Event.access) -> check_heap st eff.e_pc a.a_addr)
      eff.e_mem_writes
  | _ -> ());
  (* Shadow ret-slot maintenance + double-free checks at calls. *)
  (match eff.e_ctrl with
  | Vm.Event.Call_to ->
    let new_sp =
      match Vm.Event.written_value eff Vm.Isa.SP with
      | Some v -> v
      | None -> Vm.Cpu.get_reg st.proc.Osim.Process.cpu Vm.Isa.SP
    in
    on_call st eff.e_pc ~target:eff.e_ctrl_a ~new_sp
  | Vm.Event.Ret_to ->
    (* The slot being consumed is the address the return popped from. *)
    List.iter
      (fun (a : Vm.Event.access) -> set_slot st a.a_addr false)
      eff.e_mem_reads
  | _ -> ());
  (* Allocation tracking from syscall effects. *)
  match eff.e_sys with
  | Vm.Event.Io_alloc { ptr; size } ->
    st.live <- Chunks.add ptr size st.live;
    st.freed <- Int_set.remove ptr st.freed
  | Vm.Event.Io_free { ptr; status = `Ok } ->
    st.live <- Chunks.remove ptr st.live;
    st.freed <- Int_set.add ptr st.freed
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Fused replay loop                                                   *)
(* ------------------------------------------------------------------ *)

(* When the detector is the only instrumentation, the replay skips the
   effect record: [exec_fast] supplies the machine semantics and
   [check_fast] applies {!on_effect}'s checks straight from the decoded
   instruction, reading addresses before it executes and checking only
   if it succeeds. What it declines (syscalls — allocation tracking
   included — and anything that would fault) re-runs through
   [Vm.Cpu.step], where the registered [on_effect] post-hook sees it. *)

let slow cpu = ignore (Vm.Cpu.step cpu : Vm.Event.effect_)

let sp_idx = Vm.Isa.reg_index Vm.Isa.SP

let check_fast st cpu pc (instr : Vm.Isa.instr) =
  let open Vm.Isa in
  let regs = cpu.Vm.Cpu.regs in
  match instr with
  | Store (rb, off, _) | Storeb (rb, off, _) ->
    let addr = to_u32 (Array.unsafe_get regs (reg_index rb) + off) in
    Vm.Cpu.exec_fast cpu instr
    && begin
      check_smash st pc addr (match instr with Store _ -> 4 | _ -> 1);
      check_heap st pc addr;
      true
    end
  | Push _ ->
    let addr = to_u32 (Array.unsafe_get regs sp_idx - 4) in
    Vm.Cpu.exec_fast cpu instr
    && begin
      check_smash st pc addr 4;
      true
    end
  | Call _ | CallInd _ ->
    let new_sp = to_u32 (Array.unsafe_get regs sp_idx - 4) in
    Vm.Cpu.exec_fast cpu instr
    && begin
      on_call st pc ~target:cpu.Vm.Cpu.pc ~new_sp;
      true
    end
  | Ret ->
    let sp = Array.unsafe_get regs sp_idx in
    Vm.Cpu.exec_fast cpu instr
    && begin
      set_slot st sp false;
      true
    end
  | _ -> Vm.Cpu.exec_fast cpu instr

(* Segment-pinned inner loop: while the pc stays inside [s], decode by
   direct indexing. Returns the remaining fuel — unchanged iff no
   progress was made. *)
let rec fused_seg st cpu s fuel =
  if cpu.Vm.Cpu.halted || fuel <= 0 then fuel
  else
    let pc = cpu.Vm.Cpu.pc in
    let off = pc - s.Vm.Program.seg_base in
    if off < 0 || pc >= s.Vm.Program.seg_limit then fuel (* left the segment *)
    else if off land 3 <> 0 then fuel (* misaligned: slow path faults *)
    else begin
      if not (check_fast st cpu pc (Array.unsafe_get s.Vm.Program.seg_instrs (off lsr 2)))
      then slow cpu;
      fused_seg st cpu s (fuel - 1)
    end

(** Attach the detector to [proc], run until the process faults, blocks or
    halts (or [fuel] runs out), and detach. Uses the fused loop when the
    detector is the only instrumentation, the generic hooked interpreter
    otherwise. Call after rolling back to a checkpoint with the network
    log in replay mode. *)
let run ?(fuel = 20_000_000) (proc : Osim.Process.t) : report =
  let st = create proc in
  seed_from_image st;
  let cpu = proc.cpu in
  let before = cpu.Vm.Cpu.icount in
  let outcome =
    Vm.Cpu.run_fused ~fuel cpu ~hook:(on_effect st) (fun _ s n -> fused_seg st cpu s n)
  in
  {
    m_findings = List.rev st.findings;
    m_fault = (match outcome with Vm.Cpu.Faulted f -> Some f | _ -> None);
    (* Every committed instruction passed one of the two checkers. *)
    m_instructions = cpu.Vm.Cpu.icount - before;
  }
