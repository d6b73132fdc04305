(** Dynamic taint analysis (the TaintCheck re-implementation).

    Network bytes are tainted with the id of the message they arrived in;
    taint flows through data movement and arithmetic (not through pointers
    or control flow — that is what distinguishes it from slicing) and an
    alarm is raised when tainted data is about to be used as a control
    target. Because the fault itself pre-empts hooks, the verdict for a
    crashed replay is computed by {!classify_fault} from the machine state
    at the fault.

    The engine is built for replay speed ("first VSEF in under a second"):

    - {e Interned label sets.} A taint label set is represented by a small
      integer id; id 0 is the empty set. Singleton, union and equality are
      O(1) after the first time a combination is seen (unions of interned
      ids are memoized), and the common case — one message's taint flowing
      unmixed — never allocates.
    - {e Paged shadow memory.} Byte taint lives in per-page label-id
      arrays parallel to {!Vm.Memory}'s pages, materialized only for pages
      that have ever held taint, with a one-entry TLB over the page table.
      Tainting a received buffer is a range fill; clean stores to pages
      that never saw taint are a no-op.
    - {e A fused run loop.} {!run} does not pay the generic effect-record
      instrumentation cost per instruction: it reuses the interpreter's
      uninstrumented executor ({!Vm.Cpu.exec_fast}) for machine semantics
      and applies the shadow updates inline, dropping to the hooked
      instrumented path only for syscalls and faulting instructions. The
      hook-based entry points ({!on_effect}, {!guard}) remain for online
      monitors (sampling) and for differential testing.

    {!Oracle} is the original per-byte hashtable engine, kept verbatim as
    the reference implementation the fast engine is differentially tested
    against (see [test/test_taint_diff.ml]). *)

module Int_set = Set.Make (Int)

type verdict =
  | Tainted_ret of { pc : int; msgs : Int_set.t }
      (** a return address built from these messages was (about to be) used *)
  | Tainted_call of { pc : int; msgs : Int_set.t }
  | Tainted_store_fault of { pc : int; msgs : Int_set.t }
      (** the faulting store was writing attacker-controlled bytes *)
  | Tainted_exec of { pc : int; msgs : Int_set.t }
      (** tainted bytes reached [system]/[exec] *)
  | Untainted_fault of { pc : int }
      (** the fault involved no tainted data (e.g. a NULL dereference
          reached through an untainted pointer) *)
  | No_fault

(* The command string handed to [exec] is read by the syscall layer with
   [Memory.load_cstring]'s default limit; the guard's sink scan must cover
   exactly the same bytes. *)
let exec_scan_limit = 65536

(* ------------------------------------------------------------------ *)
(* Interned label sets                                                 *)
(* ------------------------------------------------------------------ *)

(* Sets are interned by their canonical element list (two structurally
   equal AVL sets can have different shapes, so the trees themselves are
   not usable as table keys). Ids are dense from 0 = empty. *)
type labels = {
  mutable sets : Int_set.t array;  (** id -> set *)
  mutable n_sets : int;
  by_elems : (int list, int) Hashtbl.t;
  singleton_memo : (int, int) Hashtbl.t;  (** msg id -> id *)
  union_memo : (int, int) Hashtbl.t;  (** (lo << 20) lor hi -> id *)
}

(* Bound so a memoized (lo, hi) id pair packs into one immediate key. *)
let max_label_ids = 1 lsl 20

let labels_create () =
  let by_elems = Hashtbl.create 64 in
  Hashtbl.replace by_elems [] 0;
  {
    sets = Array.make 64 Int_set.empty;
    n_sets = 1;
    by_elems;
    singleton_memo = Hashtbl.create 16;
    union_memo = Hashtbl.create 64;
  }

let set_of lb id = lb.sets.(id)

let intern lb s =
  if Int_set.is_empty s then 0
  else
    let key = Int_set.elements s in
    match Hashtbl.find_opt lb.by_elems key with
    | Some id -> id
    | None ->
      let id = lb.n_sets in
      if id >= max_label_ids then failwith "Taint: too many distinct label sets";
      if id = Array.length lb.sets then begin
        let bigger = Array.make (2 * id) Int_set.empty in
        Array.blit lb.sets 0 bigger 0 id;
        lb.sets <- bigger
      end;
      lb.sets.(id) <- s;
      lb.n_sets <- id + 1;
      Hashtbl.replace lb.by_elems key id;
      id

let singleton lb m =
  match Hashtbl.find_opt lb.singleton_memo m with
  | Some id -> id
  | None ->
    let id = intern lb (Int_set.singleton m) in
    Hashtbl.replace lb.singleton_memo m id;
    id

let union lb a b =
  if a = b || b = 0 then a
  else if a = 0 then b
  else
    let lo, hi = if a < b then (a, b) else (b, a) in
    let key = (lo lsl 20) lor hi in
    match Hashtbl.find_opt lb.union_memo key with
    | Some id -> id
    | None ->
      let id = intern lb (Int_set.union lb.sets.(lo) lb.sets.(hi)) in
      Hashtbl.replace lb.union_memo key id;
      id

(* ------------------------------------------------------------------ *)
(* Tracker state: register taint + paged shadow memory                 *)
(* ------------------------------------------------------------------ *)

let page_bits = Vm.Memory.page_bits
let page_size = Vm.Memory.page_size
let page_mask = page_size - 1

(* TLB-invalid sentinel; [tlb_idx = -1] never matches a page index. *)
let no_page : int array = [||]

type t = {
  proc : Osim.Process.t;
  labels : labels;
  shadow : (int, int array) Hashtbl.t;  (** page index -> per-byte label ids *)
  mutable tlb_idx : int;   (** page index cached in [tlb], or -1 *)
  mutable tlb : int array;
  mutable neg_idx : int;   (** page index known absent, or -1 *)
  reg_taint : int array;   (** label id per register *)
  prop_mask : Bytes.t array;
      (** parallel to code segments: non-zero bytes mark instructions that
          moved taint (the static prop set, maintained O(1) per mark) *)
  plans : int array array;
      (** parallel to code segments: the pre-decoded taint micro-op of each
          instruction (see [plan_of_instr]), so the fused loop dispatches
          on a small int instead of destructuring the instruction *)
  mutable any_taint : bool;  (** false until the first tainted byte exists *)
  mutable sources_seen : Int_set.t;  (** message ids read *)
}

(* The taint-relevant content of one instruction, packed into one
   immediate: bits 0-3 the kind, 4-7 the destination/value register index,
   8-11 the source/base register index, 12+ the signed memory offset.
   Register indices come from [Isa.reg_index] (total, < 16), so the fused
   loop indexes the shadow register file without further decoding. *)
let k_exec = 0      (* no taint effect: Cmp, jumps, Ret, Halt, Nop, Syscall *)
let k_mov_const = 1 (* rd becomes clean *)
let k_mov_reg = 2   (* rd := taint of rs *)
let k_mark_rd = 3   (* rd's taint unchanged, mark if tainted: Not/Neg/Bin-imm *)
let k_bin_reg = 4   (* rd := rd ∪ rs *)
let k_load = 5
let k_loadb = 6
let k_store = 7
let k_storeb = 8
let k_push_reg = 9
let k_push_const = 10
let k_pop = 11
let k_call = 12     (* pushed return-address slot becomes clean *)

let pack kind a b off =
  kind lor (a lsl 4) lor (b lsl 8) lor (off lsl 12)

let plan_of_instr (i : Vm.Isa.instr) =
  let open Vm.Isa in
  let ri = reg_index in
  match i with
  | Mov (rd, Reg rs) -> pack k_mov_reg (ri rd) (ri rs) 0
  | Mov (rd, (Imm _ | Sym _)) -> pack k_mov_const (ri rd) 0 0
  | Bin (_, rd, Reg rs) -> pack k_bin_reg (ri rd) (ri rs) 0
  | Bin (_, rd, (Imm _ | Sym _)) | Not rd | Neg rd -> pack k_mark_rd (ri rd) 0 0
  | Load (rd, rs, off) -> pack k_load (ri rd) (ri rs) off
  | Loadb (rd, rs, off) -> pack k_loadb (ri rd) (ri rs) off
  | Store (rb, off, rs) -> pack k_store (ri rs) (ri rb) off
  | Storeb (rb, off, rs) -> pack k_storeb (ri rs) (ri rb) off
  | Push (Reg rs) -> pack k_push_reg 0 (ri rs) 0
  | Push (Imm _ | Sym _) -> pack k_push_const 0 0 0
  | Pop rd -> pack k_pop (ri rd) 0 0
  | Call _ | CallInd _ -> pack k_call 0 0 0
  | Cmp _ | Jmp _ | Jcc _ | Ret | Syscall _ | Halt | Nop -> k_exec

let create proc =
  let code = proc.Osim.Process.cpu.Vm.Cpu.code in
  {
    proc;
    labels = labels_create ();
    shadow = Hashtbl.create 64;
    tlb_idx = -1;
    tlb = no_page;
    neg_idx = -1;
    reg_taint = Array.make Vm.Isa.num_regs 0;
    prop_mask =
      Array.map
        (fun s -> Bytes.make (Array.length s.Vm.Program.seg_instrs) '\000')
        code.Vm.Program.segments;
    plans =
      Array.map
        (fun s -> Array.map plan_of_instr s.Vm.Program.seg_instrs)
        code.Vm.Program.segments;
    any_taint = false;
    sources_seen = Int_set.empty;
  }

(* Label id of one shadow byte. Absent pages are all-clean; the one-entry
   positive TLB and one-entry negative cache keep the two hot pages of a
   copy loop (tainted source, clean destination) off the hashtable. *)
let mem_label st addr =
  let idx = addr lsr page_bits in
  if idx = st.tlb_idx then Array.unsafe_get st.tlb (addr land page_mask)
  else if idx = st.neg_idx then 0
  else
    match Hashtbl.find_opt st.shadow idx with
    | Some pg ->
      st.tlb_idx <- idx;
      st.tlb <- pg;
      Array.unsafe_get pg (addr land page_mask)
    | None ->
      st.neg_idx <- idx;
      0

let rec mem_label_range_from st addr size i acc =
  if i >= size then acc
  else
    mem_label_range_from st addr size (i + 1)
      (union st.labels acc (mem_label st (addr + i)))

(** Union of the labels of [size] shadow bytes at [addr]. *)
let mem_label_range st addr size =
  if size = 1 then mem_label st addr
  else mem_label_range_from st addr size 0 0

(* Combine the labels of 4 shadow bytes at [off] within one page. All-equal
   (one label flowing unmixed, or all clean) is the overwhelmingly common
   case and costs no union. Union order does not matter: ids are canonical
   by set content. *)
let word_in_page st pg off =
  let t0 = Array.unsafe_get pg off
  and t1 = Array.unsafe_get pg (off + 1)
  and t2 = Array.unsafe_get pg (off + 2)
  and t3 = Array.unsafe_get pg (off + 3) in
  if t0 = t1 && t2 = t3 && t0 = t2 then t0
  else union st.labels (union st.labels t0 t1) (union st.labels t2 t3)

(* Materialize (or look up) the shadow page holding [idx], loading the TLB. *)
let shadow_page st idx =
  match Hashtbl.find_opt st.shadow idx with
  | Some pg ->
    st.tlb_idx <- idx;
    st.tlb <- pg;
    pg
  | None ->
    let pg = Array.make page_size 0 in
    Hashtbl.add st.shadow idx pg;
    st.tlb_idx <- idx;
    st.tlb <- pg;
    if st.neg_idx = idx then st.neg_idx <- -1;
    pg

let set_byte st addr id =
  let idx = addr lsr page_bits in
  if idx = st.tlb_idx then Array.unsafe_set st.tlb (addr land page_mask) id
  else
    match Hashtbl.find_opt st.shadow idx with
    | Some pg ->
      st.tlb_idx <- idx;
      st.tlb <- pg;
      Array.unsafe_set pg (addr land page_mask) id
    | None ->
      (* A clean store to a page that never held taint changes nothing. *)
      if id <> 0 then Array.unsafe_set (shadow_page st idx) (addr land page_mask) id
      else st.neg_idx <- idx

let set_mem_label st addr size id =
  if id <> 0 then st.any_taint <- true;
  for i = 0 to size - 1 do
    set_byte st (addr + i) id
  done

(* Word-sized (4-byte) fast paths for the fused loop: one page probe per
   access when the word does not straddle a page boundary. *)
let mem_label_word st addr =
  let off = addr land page_mask in
  if off > page_size - 4 then mem_label_range st addr 4
  else
    let idx = addr lsr page_bits in
    if idx = st.tlb_idx then begin
      (* TLB hit, open-coded [word_in_page]: the all-equal word (one label
         unmixed, or all clean) is the hot case. *)
      let pg = st.tlb in
      let t0 = Array.unsafe_get pg off
      and t1 = Array.unsafe_get pg (off + 1)
      and t2 = Array.unsafe_get pg (off + 2)
      and t3 = Array.unsafe_get pg (off + 3) in
      if t0 = t1 && t2 = t3 && t0 = t2 then t0
      else union st.labels (union st.labels t0 t1) (union st.labels t2 t3)
    end
    else if idx = st.neg_idx then 0
    else
      match Hashtbl.find_opt st.shadow idx with
      | Some pg ->
        st.tlb_idx <- idx;
        st.tlb <- pg;
        word_in_page st pg off
      | None ->
        st.neg_idx <- idx;
        0

let set_mem_word st addr id =
  let off = addr land page_mask in
  if off > page_size - 4 then set_mem_label st addr 4 id
  else begin
    if id <> 0 then st.any_taint <- true;
    let idx = addr lsr page_bits in
    let pg =
      if idx = st.tlb_idx then st.tlb
      else
        match Hashtbl.find_opt st.shadow idx with
        | Some pg ->
          st.tlb_idx <- idx;
          st.tlb <- pg;
          pg
        | None ->
          if id = 0 then begin
            (* Clean store to a page that never held taint: no-op. *)
            st.neg_idx <- idx;
            no_page
          end
          else shadow_page st idx
    in
    if pg != no_page then begin
      Array.unsafe_set pg off id;
      Array.unsafe_set pg (off + 1) id;
      Array.unsafe_set pg (off + 2) id;
      Array.unsafe_set pg (off + 3) id
    end
  end

(* Range fill for [Io_recv]: every received byte gets the message's
   singleton label in page-sized [Array.fill] spans. *)
let fill_range st addr len id =
  if len > 0 then begin
    if id <> 0 then st.any_taint <- true;
    let pos = ref addr in
    let remaining = ref len in
    while !remaining > 0 do
      let idx = !pos lsr page_bits in
      let off = !pos land page_mask in
      let n = min (page_size - off) !remaining in
      (if id <> 0 then Array.fill (shadow_page st idx) off n id
       else
         match Hashtbl.find_opt st.shadow idx with
         | Some pg -> Array.fill pg off n 0
         | None -> ());
      pos := !pos + n;
      remaining := !remaining - n
    done
  end

(* Mark pc as a taint-propagating instruction: one byte store in the
   per-segment mask. Instruction size is 4 (asserted) so the index is a
   shift, like the interpreter's own dispatch. *)
let () = assert (Vm.Isa.instr_size = 4)

let rec mark_in segs masks pc i =
  if i < Array.length segs then begin
    let s = Array.unsafe_get segs i in
    if pc >= s.Vm.Program.seg_base && pc < s.Vm.Program.seg_limit then
      Bytes.unsafe_set
        (Array.unsafe_get masks i)
        ((pc - s.Vm.Program.seg_base) lsr 2)
        '\001'
    else mark_in segs masks pc (i + 1)
  end

let mark st pc =
  mark_in st.proc.Osim.Process.cpu.Vm.Cpu.code.Vm.Program.segments st.prop_mask
    pc 0

let mark_if st id pc = if id <> 0 then mark st pc

(** The marked propagation pcs, ascending (segments are sorted by base). *)
let prop_pcs_list st =
  let segs = st.proc.Osim.Process.cpu.Vm.Cpu.code.Vm.Program.segments in
  let acc = ref [] in
  for si = Array.length segs - 1 downto 0 do
    let mask = st.prop_mask.(si) in
    let base = segs.(si).Vm.Program.seg_base in
    for ii = Bytes.length mask - 1 downto 0 do
      if Bytes.unsafe_get mask ii <> '\000' then
        acc := base + (ii lsl 2) :: !acc
    done
  done;
  !acc

(* [reg_index] is total with range [0, num_regs); the shadow register file
   has exactly [num_regs] slots, so unchecked indexing is safe. *)
let reg st r = Array.unsafe_get st.reg_taint (Vm.Isa.reg_index r)

let operand_label st = function
  | Vm.Isa.Reg r -> reg st r
  | Vm.Isa.Imm _ | Vm.Isa.Sym _ -> 0

let rec reads_label st (reads : Vm.Event.access list) acc =
  match reads with
  | [] -> acc
  | a :: tl ->
    reads_label st tl (union st.labels acc (mem_label_range st a.a_addr a.a_size))

let rec writes_set st (writes : Vm.Event.access list) id =
  match writes with
  | [] -> ()
  | a :: tl ->
    set_mem_label st a.a_addr a.a_size id;
    writes_set st tl id

(* ------------------------------------------------------------------ *)
(* Hook-based propagation (sampling monitors, slow-path instructions)  *)
(* ------------------------------------------------------------------ *)

(* Propagation, per instruction shape. Pointer (base-register) taint is
   deliberately not propagated into loads/stores — TaintCheck semantics. *)
let on_effect st (eff : Vm.Event.effect_) =
  (* Until the first tainted byte exists every propagation rule is the
     identity on an all-clean state; only syscall sources matter. *)
  (if st.any_taint then
     match eff.e_instr with
     | Vm.Isa.Mov (rd, op) ->
       let t = operand_label st op in
       mark_if st t eff.e_pc;
       st.reg_taint.(Vm.Isa.reg_index rd) <- t
     | Vm.Isa.Bin (_, rd, src) ->
       let t = union st.labels (reg st rd) (operand_label st src) in
       mark_if st t eff.e_pc;
       st.reg_taint.(Vm.Isa.reg_index rd) <- t
     | Vm.Isa.Not rd | Vm.Isa.Neg rd -> mark_if st (reg st rd) eff.e_pc
     | Vm.Isa.Load (rd, _, _) | Vm.Isa.Loadb (rd, _, _) ->
       let t = reads_label st eff.e_mem_reads 0 in
       mark_if st t eff.e_pc;
       st.reg_taint.(Vm.Isa.reg_index rd) <- t
     | Vm.Isa.Store (_, _, rs) | Vm.Isa.Storeb (_, _, rs) ->
       let t = reg st rs in
       mark_if st t eff.e_pc;
       writes_set st eff.e_mem_writes t
     | Vm.Isa.Push op ->
       let t = operand_label st op in
       mark_if st t eff.e_pc;
       writes_set st eff.e_mem_writes t
     | Vm.Isa.Pop rd ->
       let t = reads_label st eff.e_mem_reads 0 in
       mark_if st t eff.e_pc;
       st.reg_taint.(Vm.Isa.reg_index rd) <- t
     | Vm.Isa.Call _ | Vm.Isa.CallInd _ ->
       (* The pushed return address is clean. *)
       writes_set st eff.e_mem_writes 0
     | Vm.Isa.Cmp _ | Vm.Isa.Jmp _ | Vm.Isa.Jcc _ | Vm.Isa.Ret
     | Vm.Isa.Syscall _ | Vm.Isa.Halt | Vm.Isa.Nop ->
       ());
  (* Syscall sources and register results. *)
  match eff.e_sys with
  | Vm.Event.Io_recv { buf; len; msg_id } ->
    st.sources_seen <- Int_set.add msg_id st.sources_seen;
    fill_range st buf len (singleton st.labels msg_id);
    st.reg_taint.(Vm.Isa.reg_index Vm.Isa.R0) <- 0
  | Vm.Event.Io_alloc _ | Vm.Event.Io_free _ | Vm.Event.Io_send _
  | Vm.Event.Io_exit _ | Vm.Event.Io_other _ ->
    st.reg_taint.(Vm.Isa.reg_index Vm.Isa.R0) <- 0
  | Vm.Event.Io_exec _ -> ()
  | Vm.Event.Io_none -> ()

(** A pre-hook check that stops tainted data {e before} it is misused:
    a return to a tainted address, an indirect call through a tainted
    register, or tainted bytes handed to [exec]. This is TaintCheck run as
    an online monitor — what a host doing Section 4.2 sampling (or a
    sentinel node) uses to catch attacks randomization would miss, including
    ones whose address guess was right. *)
let guard st (eff : Vm.Event.effect_) =
  if st.any_taint then begin
    let sink =
      match eff.e_instr with
      | Vm.Isa.Ret -> reads_label st eff.e_mem_reads 0
      | Vm.Isa.CallInd r -> reg st r
      | Vm.Isa.Syscall n when n = Vm.Sysno.sys_exec ->
        (* The command string the process is about to execute: the shadow
           of its actual NUL-terminated bytes, under the same length cap
           the syscall layer's [load_cstring] applies. *)
        let addr = Vm.Cpu.get_reg st.proc.Osim.Process.cpu Vm.Isa.R0 in
        let mem = st.proc.Osim.Process.mem in
        let rec scan acc i =
          if i >= exec_scan_limit then acc
          else if Vm.Memory.load_byte mem (addr + i) = 0 then acc
          else scan (union st.labels acc (mem_label st (addr + i))) (i + 1)
        in
        scan 0 0
      | _ -> 0
    in
    if sink <> 0 then
      Detection.detect
        (Detection.Taint_sink
           (String.concat ","
              (List.map string_of_int (Int_set.elements (set_of st.labels sink)))))
        ~pc:eff.e_pc ~detail:"tainted data about to be misused"
  end

(** After a replay ends, classify its outcome: did tainted data cause it? *)
let classify_fault st (outcome : Vm.Cpu.outcome) : verdict =
  let cpu = st.proc.Osim.Process.cpu in
  let pc = cpu.Vm.Cpu.pc in
  match outcome with
  | Vm.Cpu.Faulted _ -> (
    match Vm.Program.fetch cpu.Vm.Cpu.code pc with
    | Some Vm.Isa.Ret ->
      let sp = Vm.Cpu.get_reg cpu Vm.Isa.SP in
      let t = mem_label_range st sp 4 in
      if t = 0 then Untainted_fault { pc }
      else Tainted_ret { pc; msgs = set_of st.labels t }
    | Some (Vm.Isa.CallInd r) ->
      let t = reg st r in
      if t = 0 then Untainted_fault { pc }
      else Tainted_call { pc; msgs = set_of st.labels t }
    | Some (Vm.Isa.Store (_, _, rs) | Vm.Isa.Storeb (_, _, rs)) ->
      let t = reg st rs in
      if t = 0 then Untainted_fault { pc }
      else Tainted_store_fault { pc; msgs = set_of st.labels t }
    | _ -> Untainted_fault { pc })
  | Vm.Cpu.Halted | Vm.Cpu.Blocked | Vm.Cpu.Out_of_fuel -> (
    (* Did the run reach exec with tainted bytes (successful hijack)? *)
    match st.proc.Osim.Process.compromised with
    | Some _ -> Tainted_exec { pc; msgs = st.sources_seen }
    | None -> No_fault)

type result = {
  t_verdict : verdict;
  t_prop_pcs : int list;      (** taint-propagating instructions *)
  t_instructions : int;
}

let verdict_msgs = function
  | Tainted_ret { msgs; _ } | Tainted_call { msgs; _ }
  | Tainted_store_fault { msgs; _ } | Tainted_exec { msgs; _ } ->
    Int_set.elements msgs
  | Untainted_fault _ | No_fault -> []

let verdict_to_string = function
  | Tainted_ret { pc; msgs } ->
    Printf.sprintf "tainted return address at 0x%x (messages %s)" pc
      (String.concat "," (List.map string_of_int (Int_set.elements msgs)))
  | Tainted_call { pc; msgs } ->
    Printf.sprintf "tainted call target at 0x%x (messages %s)" pc
      (String.concat "," (List.map string_of_int (Int_set.elements msgs)))
  | Tainted_store_fault { pc; msgs } ->
    Printf.sprintf "faulting store of tainted data at 0x%x (messages %s)" pc
      (String.concat "," (List.map string_of_int (Int_set.elements msgs)))
  | Tainted_exec { pc; msgs } ->
    Printf.sprintf "tainted data reached exec at 0x%x (messages %s)" pc
      (String.concat "," (List.map string_of_int (Int_set.elements msgs)))
  | Untainted_fault { pc } -> Printf.sprintf "fault at 0x%x involved no taint" pc
  | No_fault -> "no fault during monitored replay"

(* ------------------------------------------------------------------ *)
(* Fused replay loop                                                   *)
(* ------------------------------------------------------------------ *)

(* The replay workhorse. Machine semantics come from [Cpu.exec_fast] —
   never re-implemented here — and the shadow updates mirror {!on_effect}
   exactly (the differential suite holds the two to account). Taint inputs
   that depend on pre-execution state (addresses, the pc) are computed
   before [exec_fast] runs and applied only if it succeeds; when it
   declines (syscalls, anything that would fault) the instruction re-runs
   on the instrumented path, where the registered [on_effect] post-hook
   sees it — or, for a fault, nothing does, matching post-commit hook
   semantics. *)

let slow cpu = ignore (Vm.Cpu.step cpu : Vm.Event.effect_)

let sp_idx = Vm.Isa.reg_index Vm.Isa.SP

(* Segment-pinned inner loop (the shape of the interpreter's own fast
   dispatch): while the pc stays inside [s], decode by direct indexing.
   Returns the remaining fuel — unchanged iff no progress was made.

   Machine semantics always come from [Cpu.exec_fast]; when it declines
   (syscalls — including the recv that introduces the first taint — and
   anything that would fault) the instruction re-runs on the hooked path,
   where the registered [on_effect] post-hook sees it. The propagation
   itself dispatches on the pre-decoded plan int; [mask] is this segment's
   slab of [prop_mask] so marking a propagation site is one byte store.
   Taint inputs that depend on pre-execution state (addresses from
   registers) are read before [exec_fast] and applied only if it ran. *)
let rec fused_seg st cpu s mask plan fuel =
  if cpu.Vm.Cpu.halted || fuel <= 0 then fuel
  else
    let pc = cpu.Vm.Cpu.pc in
    let off = pc - s.Vm.Program.seg_base in
    if off < 0 || pc >= s.Vm.Program.seg_limit then fuel (* left the segment *)
    else if off land 3 <> 0 then fuel (* misaligned: slow path faults *)
    else begin
      let ii = off lsr 2 in
      let instr = Array.unsafe_get s.Vm.Program.seg_instrs ii in
      (if not st.any_taint then begin
         (* All-clean: propagation is the identity, only machine
            semantics run. *)
         if not (Vm.Cpu.exec_fast cpu instr) then slow cpu
       end
       else
         let p = Array.unsafe_get plan ii in
         let rt = st.reg_taint in
         match p land 15 with
         | 0 (* k_exec *) -> if not (Vm.Cpu.exec_fast cpu instr) then slow cpu
         | 1 (* k_mov_const *) ->
           if Vm.Cpu.exec_fast cpu instr then
             Array.unsafe_set rt ((p lsr 4) land 15) 0
           else slow cpu
         | 2 (* k_mov_reg *) ->
           let t = Array.unsafe_get rt ((p lsr 8) land 15) in
           if Vm.Cpu.exec_fast cpu instr then begin
             if t <> 0 then Bytes.unsafe_set mask ii '\001';
             Array.unsafe_set rt ((p lsr 4) land 15) t
           end
           else slow cpu
         | 3 (* k_mark_rd: rd's taint is unchanged *) ->
           if Vm.Cpu.exec_fast cpu instr then begin
             if Array.unsafe_get rt ((p lsr 4) land 15) <> 0 then
               Bytes.unsafe_set mask ii '\001'
           end
           else slow cpu
         | 4 (* k_bin_reg *) ->
           let ta = Array.unsafe_get rt ((p lsr 4) land 15) in
           let tb = Array.unsafe_get rt ((p lsr 8) land 15) in
           let t =
             if tb = 0 || ta = tb then ta
             else if ta = 0 then tb
             else union st.labels ta tb
           in
           if Vm.Cpu.exec_fast cpu instr then begin
             if t <> 0 then Bytes.unsafe_set mask ii '\001';
             Array.unsafe_set rt ((p lsr 4) land 15) t
           end
           else slow cpu
         | 5 (* k_load *) ->
           let addr =
             (Array.unsafe_get cpu.Vm.Cpu.regs ((p lsr 8) land 15) + (p asr 12))
             land 0xFFFFFFFF
           in
           if Vm.Cpu.exec_fast cpu instr then begin
             let t = mem_label_word st addr in
             if t <> 0 then Bytes.unsafe_set mask ii '\001';
             Array.unsafe_set rt ((p lsr 4) land 15) t
           end
           else slow cpu
         | 6 (* k_loadb *) ->
           let addr =
             (Array.unsafe_get cpu.Vm.Cpu.regs ((p lsr 8) land 15) + (p asr 12))
             land 0xFFFFFFFF
           in
           if Vm.Cpu.exec_fast cpu instr then begin
             let t = mem_label st addr in
             if t <> 0 then Bytes.unsafe_set mask ii '\001';
             Array.unsafe_set rt ((p lsr 4) land 15) t
           end
           else slow cpu
         | 7 (* k_store *) ->
           let addr =
             (Array.unsafe_get cpu.Vm.Cpu.regs ((p lsr 8) land 15) + (p asr 12))
             land 0xFFFFFFFF
           in
           if Vm.Cpu.exec_fast cpu instr then begin
             let t = Array.unsafe_get rt ((p lsr 4) land 15) in
             if t <> 0 then Bytes.unsafe_set mask ii '\001';
             set_mem_word st addr t
           end
           else slow cpu
         | 8 (* k_storeb *) ->
           let addr =
             (Array.unsafe_get cpu.Vm.Cpu.regs ((p lsr 8) land 15) + (p asr 12))
             land 0xFFFFFFFF
           in
           if Vm.Cpu.exec_fast cpu instr then begin
             let t = Array.unsafe_get rt ((p lsr 4) land 15) in
             if t <> 0 then begin
               Bytes.unsafe_set mask ii '\001';
               st.any_taint <- true
             end;
             set_byte st addr t
           end
           else slow cpu
         | 9 (* k_push_reg *) ->
           let addr =
             (Array.unsafe_get cpu.Vm.Cpu.regs sp_idx - 4) land 0xFFFFFFFF
           in
           let t = Array.unsafe_get rt ((p lsr 8) land 15) in
           if Vm.Cpu.exec_fast cpu instr then begin
             if t <> 0 then Bytes.unsafe_set mask ii '\001';
             set_mem_word st addr t
           end
           else slow cpu
         | 10 (* k_push_const *) ->
           let addr =
             (Array.unsafe_get cpu.Vm.Cpu.regs sp_idx - 4) land 0xFFFFFFFF
           in
           if Vm.Cpu.exec_fast cpu instr then set_mem_word st addr 0
           else slow cpu
         | 11 (* k_pop *) ->
           let sp = Array.unsafe_get cpu.Vm.Cpu.regs sp_idx in
           if Vm.Cpu.exec_fast cpu instr then begin
             let t = mem_label_word st sp in
             if t <> 0 then Bytes.unsafe_set mask ii '\001';
             Array.unsafe_set rt ((p lsr 4) land 15) t
           end
           else slow cpu
         | _ (* 12, k_call *) ->
           let addr =
             (Array.unsafe_get cpu.Vm.Cpu.regs sp_idx - 4) land 0xFFFFFFFF
           in
           if Vm.Cpu.exec_fast cpu instr then
             (* The pushed return address is clean. *)
             set_mem_word st addr 0
           else slow cpu);
      fused_seg st cpu s mask plan (fuel - 1)
    end

(** Attach the tracker, run the replay to completion, classify, detach.
    Uses the fused loop when this tracker is the only instrumentation on
    the CPU; otherwise falls back to the generic hooked interpreter so
    foreign hooks keep firing. *)
let run ?(fuel = 20_000_000) (proc : Osim.Process.t) : result =
  let cpu = proc.Osim.Process.cpu in
  let st = create proc in
  let before = cpu.Vm.Cpu.icount in
  let outcome =
    Vm.Cpu.run_fused ~fuel cpu ~hook:(on_effect st) (fun i s n ->
        fused_seg st cpu s
          (Array.unsafe_get st.prop_mask i)
          (Array.unsafe_get st.plans i)
          n)
  in
  {
    t_verdict = classify_fault st outcome;
    t_prop_pcs = prop_pcs_list st;
    t_instructions = cpu.Vm.Cpu.icount - before;
  }

(** Build the taint-derived VSEF from a completed analysis. [proc] supplies
    the image bases for making the check relocatable. *)
let vsef_of_result ~app ~proc (r : result) =
  match r.t_verdict with
  | Tainted_ret { pc; _ } | Tainted_call { pc; _ }
  | Tainted_store_fault { pc; _ } | Tainted_exec { pc; _ } ->
    Some
      {
        Vsef.v_name = "taint-filter";
        v_app = app;
        v_check =
          Vsef.Taint_filter
            {
              source_sysno = Vm.Sysno.sys_recv;
              prop = List.map (Vsef.loc_of_pc proc) r.t_prop_pcs;
              sink = Vsef.loc_of_pc proc pc;
            };
        v_origin = Vsef.From_taint;
      }
  | Untainted_fault _ | No_fault -> None

(* ------------------------------------------------------------------ *)
(* Oracle: the original per-byte engine, kept as the reference          *)
(* ------------------------------------------------------------------ *)

(** The first implementation of this engine — one hashtable entry per
    tainted byte, label sets passed around as AVL sets — retained verbatim
    as the differential-testing oracle for the interned/paged engine
    above. Same propagation rules, same guard spec, same verdicts; only
    the data structures (and the speed) differ. *)
module Oracle = struct
  type state = {
    o_proc : Osim.Process.t;
    byte_taint : (int, Int_set.t) Hashtbl.t;
    o_reg_taint : Int_set.t array;
    mutable prop_pcs : Int_set.t;  (** instructions that moved taint *)
    mutable o_sources_seen : Int_set.t;  (** message ids read *)
  }

  let create proc =
    {
      o_proc = proc;
      byte_taint = Hashtbl.create 1024;
      o_reg_taint = Array.make Vm.Isa.num_regs Int_set.empty;
      prop_pcs = Int_set.empty;
      o_sources_seen = Int_set.empty;
    }

  let byte_set st addr =
    match Hashtbl.find_opt st.byte_taint addr with
    | Some s -> s
    | None -> Int_set.empty

  let mem_taint st (a : Vm.Event.access) =
    let rec go acc i =
      if i >= a.a_size then acc
      else go (Int_set.union acc (byte_set st (a.a_addr + i))) (i + 1)
    in
    go Int_set.empty 0

  let set_mem_taint st addr size taint =
    for i = 0 to size - 1 do
      if Int_set.is_empty taint then Hashtbl.remove st.byte_taint (addr + i)
      else Hashtbl.replace st.byte_taint (addr + i) taint
    done

  let reg st r = st.o_reg_taint.(Vm.Isa.reg_index r)
  let set_reg st r v = st.o_reg_taint.(Vm.Isa.reg_index r) <- v

  let operand_taint st = function
    | Vm.Isa.Reg r -> reg st r
    | Vm.Isa.Imm _ | Vm.Isa.Sym _ -> Int_set.empty

  let on_effect st (eff : Vm.Event.effect_) =
    let mark taint =
      if not (Int_set.is_empty taint) then
        st.prop_pcs <- Int_set.add eff.e_pc st.prop_pcs
    in
    (match eff.e_instr with
    | Vm.Isa.Mov (rd, op) ->
      let t = operand_taint st op in
      mark t;
      set_reg st rd t
    | Vm.Isa.Bin (_, rd, src) ->
      let t = Int_set.union (reg st rd) (operand_taint st src) in
      mark t;
      set_reg st rd t
    | Vm.Isa.Not rd | Vm.Isa.Neg rd -> mark (reg st rd)
    | Vm.Isa.Load (rd, _, _) | Vm.Isa.Loadb (rd, _, _) ->
      let t =
        List.fold_left
          (fun acc a -> Int_set.union acc (mem_taint st a))
          Int_set.empty eff.e_mem_reads
      in
      mark t;
      set_reg st rd t
    | Vm.Isa.Store (_, _, rs) | Vm.Isa.Storeb (_, _, rs) ->
      let t = reg st rs in
      mark t;
      List.iter
        (fun (a : Vm.Event.access) -> set_mem_taint st a.a_addr a.a_size t)
        eff.e_mem_writes
    | Vm.Isa.Push op ->
      let t = operand_taint st op in
      mark t;
      List.iter
        (fun (a : Vm.Event.access) -> set_mem_taint st a.a_addr a.a_size t)
        eff.e_mem_writes
    | Vm.Isa.Pop rd ->
      let t =
        List.fold_left
          (fun acc a -> Int_set.union acc (mem_taint st a))
          Int_set.empty eff.e_mem_reads
      in
      mark t;
      set_reg st rd t
    | Vm.Isa.Call _ | Vm.Isa.CallInd _ ->
      (* The pushed return address is clean. *)
      List.iter
        (fun (a : Vm.Event.access) ->
          set_mem_taint st a.a_addr a.a_size Int_set.empty)
        eff.e_mem_writes
    | Vm.Isa.Cmp _ | Vm.Isa.Jmp _ | Vm.Isa.Jcc _ | Vm.Isa.Ret
    | Vm.Isa.Syscall _ | Vm.Isa.Halt | Vm.Isa.Nop ->
      ());
    match eff.e_sys with
    | Vm.Event.Io_recv { buf; len; msg_id } ->
      st.o_sources_seen <- Int_set.add msg_id st.o_sources_seen;
      for i = 0 to len - 1 do
        Hashtbl.replace st.byte_taint (buf + i) (Int_set.singleton msg_id)
      done;
      set_reg st Vm.Isa.R0 Int_set.empty
    | Vm.Event.Io_alloc _ | Vm.Event.Io_free _ | Vm.Event.Io_send _
    | Vm.Event.Io_exit _ | Vm.Event.Io_other _ ->
      set_reg st Vm.Isa.R0 Int_set.empty
    | Vm.Event.Io_exec _ -> ()
    | Vm.Event.Io_none -> ()

  let guard st (eff : Vm.Event.effect_) =
    let tainted_set =
      match eff.e_instr with
      | Vm.Isa.Ret ->
        List.fold_left
          (fun acc a -> Int_set.union acc (mem_taint st a))
          Int_set.empty eff.e_mem_reads
      | Vm.Isa.CallInd r -> reg st r
      | Vm.Isa.Syscall n when n = Vm.Sysno.sys_exec ->
        (* Same sink spec as the fast engine's {!guard}: the shadow of the
           command string's actual bytes, load_cstring's length cap. *)
        let addr = Vm.Cpu.get_reg st.o_proc.Osim.Process.cpu Vm.Isa.R0 in
        let mem = st.o_proc.Osim.Process.mem in
        let rec scan acc i =
          if i >= exec_scan_limit then acc
          else if Vm.Memory.load_byte mem (addr + i) = 0 then acc
          else scan (Int_set.union acc (byte_set st (addr + i))) (i + 1)
        in
        scan Int_set.empty 0
      | _ -> Int_set.empty
    in
    if not (Int_set.is_empty tainted_set) then
      Detection.detect
        (Detection.Taint_sink
           (String.concat ","
              (List.map string_of_int (Int_set.elements tainted_set))))
        ~pc:eff.e_pc ~detail:"tainted data about to be misused"

  let classify_fault st (outcome : Vm.Cpu.outcome) : verdict =
    let cpu = st.o_proc.Osim.Process.cpu in
    let pc = cpu.Vm.Cpu.pc in
    let word_at addr = mem_taint st { a_addr = addr; a_size = 4; a_value = 0 } in
    match outcome with
    | Vm.Cpu.Faulted _ -> (
      match Vm.Program.fetch cpu.Vm.Cpu.code pc with
      | Some Vm.Isa.Ret ->
        let sp = Vm.Cpu.get_reg cpu Vm.Isa.SP in
        let t = word_at sp in
        if Int_set.is_empty t then Untainted_fault { pc }
        else Tainted_ret { pc; msgs = t }
      | Some (Vm.Isa.CallInd r) ->
        let t = reg st r in
        if Int_set.is_empty t then Untainted_fault { pc }
        else Tainted_call { pc; msgs = t }
      | Some (Vm.Isa.Store (_, _, rs) | Vm.Isa.Storeb (_, _, rs)) ->
        let t = reg st rs in
        if Int_set.is_empty t then Untainted_fault { pc }
        else Tainted_store_fault { pc; msgs = t }
      | _ -> Untainted_fault { pc })
    | Vm.Cpu.Halted | Vm.Cpu.Blocked | Vm.Cpu.Out_of_fuel -> (
      match st.o_proc.Osim.Process.compromised with
      | Some _ -> Tainted_exec { pc; msgs = st.o_sources_seen }
      | None -> No_fault)

  (** The original hook-driven replay: every instruction on the generic
      instrumented path. *)
  let run ?(fuel = 20_000_000) (proc : Osim.Process.t) : result =
    let st = create proc in
    let before = proc.Osim.Process.cpu.Vm.Cpu.icount in
    let hook = Vm.Cpu.add_post_hook proc.cpu (on_effect st) in
    let outcome =
      Fun.protect ~finally:(fun () -> Vm.Cpu.remove_hook proc.cpu hook)
        (fun () -> Vm.Cpu.run ~fuel proc.cpu)
    in
    {
      t_verdict = classify_fault st outcome;
      t_prop_pcs = Int_set.elements st.prop_pcs;
      t_instructions = proc.Osim.Process.cpu.Vm.Cpu.icount - before;
    }
end
