(* Interval abstract interpretation over decoded programs — see the .mli
   for the model. The shape mirrors [Staint]: one pass of CFG recovery,
   a hand-rolled worklist to a post-fixpoint, then per-segment result
   arrays indexed like the segment's instruction array.

   The domain is unsigned-32 intervals. All arithmetic mirrors
   [Vm.Isa.eval_binop]'s wrap-around semantics exactly: an interval
   operation is either the exact image of the concrete one or [top],
   never something in between, so soundness never hinges on a partial
   precision argument. *)

open Vm.Isa
module P = Vm.Program

type iv = { lo : int; hi : int }

type cls =
  | Proven of int * int
  | Possible
  | Oob
  | Unreachable

let um = word_mask
let top = { lo = 0; hi = um }

let const n =
  let n = to_u32 n in
  { lo = n; hi = n }

let join_iv a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }
let leq_iv a b = a.lo >= b.lo && a.hi <= b.hi

let widen_iv old nw =
  {
    lo = (if nw.lo < old.lo then 0 else old.lo);
    hi = (if nw.hi > old.hi then um else old.hi);
  }

(* Significant bits of a non-negative int. *)
let bits n =
  let rec go n acc = if n = 0 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(* (x + y) mod 2^32 — exact unless the sum straddles the wrap point. *)
let add_iv a b =
  let lo = a.lo + b.lo and hi = a.hi + b.hi in
  if hi <= um then { lo; hi }
  else if lo > um then { lo = lo - um - 1; hi = hi - um - 1 }
  else top

(* (x - y) mod 2^32 — exact unless the difference straddles zero. *)
let sub_iv a b =
  let lo = a.lo - b.hi and hi = a.hi - b.lo in
  if lo >= 0 then { lo; hi }
  else if hi < 0 then { lo = lo + um + 1; hi = hi + um + 1 }
  else top

let mul_iv a b =
  let hi = a.hi * b.hi in
  if hi <= um then { lo = a.lo * b.lo; hi } else top

(* The interpreter evaluates Div/Mod/compares on sign-extended values;
   intervals are only precise where signedness cannot bite — operands
   below 2^31 and a positive constant divisor. *)
let s32_max = 0x7FFFFFFF

let binop_iv op a b =
  match op with
  | Add -> add_iv a b
  | Sub -> sub_iv a b
  | Mul -> mul_iv a b
  | Div ->
    if b.lo = b.hi && b.lo > 0 && b.lo <= s32_max && a.hi <= s32_max then
      { lo = a.lo / b.lo; hi = a.hi / b.lo }
    else top
  | Mod ->
    if b.lo = b.hi && b.lo > 0 && b.lo <= s32_max && a.hi <= s32_max then
      if a.hi < b.lo then a else { lo = 0; hi = b.lo - 1 }
    else top
  | And -> { lo = 0; hi = min a.hi b.hi }
  | Or ->
    let m = a.hi lor b.hi in
    { lo = max a.lo b.lo; hi = (if m = 0 then 0 else (1 lsl bits m) - 1) }
  | Xor ->
    let m = a.hi lor b.hi in
    { lo = 0; hi = (if m = 0 then 0 else (1 lsl bits m) - 1) }
  | Shl ->
    if b.lo = b.hi then begin
      let k = to_s32 b.lo land 31 in
      let hi = a.hi lsl k in
      if hi <= um then { lo = a.lo lsl k; hi } else top
    end
    else top
  | Shr ->
    if b.lo = b.hi then begin
      let k = to_s32 b.lo land 31 in
      { lo = a.lo lsr k; hi = a.hi lsr k }
    end
    else { lo = 0; hi = a.hi }

(* lnot x land mask = mask - x: exact. *)
let not_iv a = { lo = um - a.hi; hi = um - a.lo }

(* (0 - x) mod 2^32: exact away from the 0 wrap. *)
let neg_iv a =
  if a.lo = 0 && a.hi = 0 then a
  else if a.lo > 0 then { lo = um + 1 - a.hi; hi = um + 1 - a.lo }
  else top

let sp = reg_index SP
let fp = reg_index FP

(* One abstract state: an interval per register; bottom (unreachable) is
   the absence of a state. *)
let eval_operand (st : iv array) = function
  | Imm n -> const n
  | Reg r -> st.(reg_index r)
  | Sym _ -> top (* unresolved symbols never survive Asm.load *)

(* In-place abstract execution of one instruction. [Call]/[CallInd] model
   the return-slot push (their out-state is the callee-entry state); the
   fallthrough edge to the return site is handled by the caller of
   [transfer], which havocs everything but SP/FP off the pre-call
   state. *)
let transfer (st : iv array) (ins : instr) =
  match ins with
  | Mov (rd, op) -> st.(reg_index rd) <- eval_operand st op
  | Bin (op, rd, src) ->
    let d = reg_index rd in
    st.(d) <- binop_iv op st.(d) (eval_operand st src)
  | Not rd ->
    let d = reg_index rd in
    st.(d) <- not_iv st.(d)
  | Neg rd ->
    let d = reg_index rd in
    st.(d) <- neg_iv st.(d)
  | Load (rd, _, _) -> st.(reg_index rd) <- top
  | Loadb (rd, _, _) -> st.(reg_index rd) <- { lo = 0; hi = 0xFF }
  | Store _ | Storeb _ -> ()
  | Push _ -> st.(sp) <- sub_iv st.(sp) (const 4)
  | Pop rd ->
    let d = reg_index rd in
    st.(d) <- top;
    if d <> sp then st.(sp) <- add_iv st.(sp) (const 4)
  | Cmp _ -> ()
  | Jmp _ | Jcc _ -> ()
  | Call _ | CallInd _ -> st.(sp) <- sub_iv st.(sp) (const 4)
  | Ret -> st.(sp) <- add_iv st.(sp) (const 4)
  | Syscall _ -> st.(reg_index R0) <- top
  | Halt | Nop -> ()

type t = {
  ab_prog : P.t;
  ab_in : iv array option array array;
      (** per segment, per instruction: the in-state (None = unreachable) *)
  ab_cls : Bytes.t array;
      (** per segment: 'N' not an access, 'D'/'K' proven (data/stack),
          'P' possible, 'O' proven-oob, 'U' unreachable *)
  ab_data : int * int;
  ab_stack : int * int;
  ab_total : int;
  ab_accesses : int;
  ab_proven : int;
  ab_possible : int;
  ab_oob : int;
  ab_unreach : int;
  ab_ms : float;
}

let analyze ?entries ?init_sp ?cfg ~(layout : Vm.Layout.t) (prog : P.t) =
  let t0 = Sys.time () in
  let cfg = match cfg with Some c -> c | None -> Cfg.build prog in
  let blocks = Cfg.blocks cfg in
  let nb = Array.length blocks in
  let sink = Cfg.unknown cfg in
  let is_sink id = match sink with Some s -> s = id | None -> false in
  let entry_ids =
    match entries with
    | Some pcs ->
      List.filter_map
        (fun pc -> Option.map (fun b -> b.Cfg.b_id) (Cfg.block_at cfg pc))
        pcs
    | None ->
      Array.to_list blocks
      |> List.filter_map (fun b ->
             if b.Cfg.b_pc >= 0 && Cfg.is_entry cfg b then Some b.Cfg.b_id
             else None)
  in
  let entry_state () =
    Array.init num_regs (fun i ->
        match init_sp with Some v when i = sp -> const v | _ -> top)
  in
  (* Address-taken blocks: entry pcs appearing as immediate operands
     anywhere in the code (function pointers, forged-return literals).
     These are the only blocks indirect control can target that the CFG
     does not already edge into. *)
  let addr_taken = Array.make (max nb 1) false in
  let note_imm v =
    let v = to_u32 v in
    match Cfg.block_at cfg v with
    | Some b when b.Cfg.b_pc = v -> addr_taken.(b.Cfg.b_id) <- true
    | _ -> ()
  in
  Array.iter
    (fun b ->
      if b.Cfg.b_pc >= 0 then
        Array.iter
          (fun (_, ins) ->
            match ins with
            | Mov (_, Imm v) | Bin (_, _, Imm v) | Push (Imm v) | Cmp (_, Imm v)
              ->
              note_imm v
            | _ -> ())
          b.Cfg.b_instrs)
    blocks;
  (* Widening points: any block with a predecessor at or after it in pc
     order — every cycle closes through one such edge. *)
  let loop_head = Array.make (max nb 1) false in
  Array.iter
    (fun b ->
      if b.Cfg.b_pc >= 0 && List.exists (fun p -> p >= b.Cfg.b_id) (Cfg.preds b)
      then loop_head.(b.Cfg.b_id) <- true)
    blocks;
  let bin : iv array option array = Array.make (max nb 1) None in
  let hcall = ref None in (* joined at indirect-call sites *)
  let huniv = ref false in (* an unresolvable direct target broadcasts everywhere *)
  let join_into ~widen id st =
    match bin.(id) with
    | None ->
      bin.(id) <- Some (Array.copy st);
      true
    | Some cur ->
      let grew = ref false in
      let nw =
        Array.init num_regs (fun i ->
            let j = join_iv cur.(i) st.(i) in
            if not (leq_iv j cur.(i)) then grew := true;
            j)
      in
      if not !grew then false
      else begin
        bin.(id) <-
          Some
            (if widen then
               Array.init num_regs (fun i -> widen_iv cur.(i) nw.(i))
             else nw);
        true
      end
  in
  let q = Queue.create () in
  let on_q = Array.make (max nb 1) false in
  let enqueue id =
    if (not (is_sink id)) && not on_q.(id) then begin
      on_q.(id) <- true;
      Queue.add id q
    end
  in
  let hcall_targets f =
    Array.iter
      (fun b ->
        let id = b.Cfg.b_id in
        if b.Cfg.b_pc >= 0 && (!huniv || addr_taken.(id)) then f id)
      blocks
  in
  (* The hijack state is itself widened on every growth, so the feedback
     loop through indirect-call sites stabilizes in O(num_regs) steps. *)
  let join_hcall st =
    let changed =
      match !hcall with
      | None ->
        hcall := Some (Array.copy st);
        true
      | Some cur ->
        let grew = ref false in
        let nw =
          Array.init num_regs (fun i ->
              let j = join_iv cur.(i) st.(i) in
              if not (leq_iv j cur.(i)) then grew := true;
              widen_iv cur.(i) j)
        in
        if !grew then begin
          hcall := Some nw;
          true
        end
        else false
    in
    if changed then
      hcall_targets (fun id ->
          if join_into ~widen:loop_head.(id) id (Option.get !hcall) then
            enqueue id)
  in
  let set_huniv () =
    if not !huniv then begin
      huniv := true;
      match !hcall with
      | Some h ->
        hcall_targets (fun id ->
            if join_into ~widen:loop_head.(id) id h then enqueue id)
      | None -> ()
    end
  in
  (* Walk a block off its in-state: the state before the terminator (what
     a call's return site inherits SP/FP from) and the out-state (what
     jump/branch/call edges carry). *)
  let walk id =
    match bin.(id) with
    | None -> None
    | Some st0 ->
      let b = blocks.(id) in
      let st = Array.copy st0 in
      let n = Array.length b.Cfg.b_instrs in
      for i = 0 to n - 2 do
        transfer st (snd b.Cfg.b_instrs.(i))
      done;
      let pre = Array.copy st in
      let term = if n = 0 then Nop else snd b.Cfg.b_instrs.(n - 1) in
      transfer st term;
      let is_call = match term with Call _ | CallInd _ -> true | _ -> false in
      Some (st, pre, term, is_call)
  in
  let return_site_state pre =
    Array.init num_regs (fun i -> if i = sp || i = fp then pre.(i) else top)
  in
  let process id =
    match walk id with
    | None -> ()
    | Some (out, pre, term, is_call) ->
      (match term with
      | CallInd _ -> join_hcall out
      | Jmp (Lbl _) | Jcc (_, Lbl _) | Call (Lbl _) ->
        set_huniv ();
        join_hcall out
      | _ -> ());
      List.iter
        (fun (succ, kind) ->
          if not (is_sink succ) then begin
            let carry =
              match kind with
              | Cfg.Fallthrough when is_call -> return_site_state pre
              | Cfg.Fallthrough | Cfg.Jump | Cfg.Branch | Cfg.Call | Cfg.Unknown
                ->
                out
            in
            if join_into ~widen:loop_head.(succ) succ carry then enqueue succ
          end)
        blocks.(id).Cfg.b_succs
  in
  List.iter
    (fun id ->
      ignore (join_into ~widen:false id (entry_state ()));
      enqueue id)
    entry_ids;
  while not (Queue.is_empty q) do
    let id = Queue.pop q in
    on_q.(id) <- false;
    process id
  done;
  (* Two descending sweeps undo widening overshoot: recomputing a
     block's in-state from a post-fixpoint only shrinks it, and every
     intermediate state stays above the least fixpoint. The hijack state
     is frozen here. *)
  let flow_in id =
    let acc = ref None in
    let add st =
      acc :=
        Some
          (match !acc with
          | None -> Array.copy st
          | Some a -> Array.init num_regs (fun i -> join_iv a.(i) st.(i)))
    in
    if List.mem id entry_ids then add (entry_state ());
    (match !hcall with
    | Some h when !huniv || addr_taken.(id) -> add h
    | _ -> ());
    List.iter
      (fun p ->
        if not (is_sink p) then
          match walk p with
          | None -> ()
          | Some (out, pre, _, is_call) ->
            List.iter
              (fun (succ, kind) ->
                if succ = id then
                  match kind with
                  | Cfg.Unknown -> ()
                  | Cfg.Fallthrough when is_call -> add (return_site_state pre)
                  | Cfg.Fallthrough | Cfg.Jump | Cfg.Branch | Cfg.Call -> add out)
              blocks.(p).Cfg.b_succs)
      (Cfg.preds blocks.(id));
    !acc
  in
  for _sweep = 1 to 2 do
    Array.iter
      (fun b ->
        let id = b.Cfg.b_id in
        if b.Cfg.b_pc >= 0 && bin.(id) <> None then
          match flow_in id with Some s -> bin.(id) <- Some s | None -> ())
      blocks
  done;
  (* Final pass: per-instruction in-states and the access partition. *)
  let segs = prog.P.segments in
  let ab_in =
    Array.map (fun s -> Array.make (Array.length s.P.seg_instrs) None) segs
  in
  let ab_cls =
    Array.map (fun s -> Bytes.make (Array.length s.P.seg_instrs) 'N') segs
  in
  let data_lo = layout.Vm.Layout.data_base
  and data_hi = layout.Vm.Layout.data_limit in
  let stk_lo = layout.Vm.Layout.stack_limit
  and stk_hi = layout.Vm.Layout.stack_top in
  let heap_lo = layout.Vm.Layout.heap_base in
  (* One page of slack over the arena cap: the mapped heap limit rounds
     the break up to a page boundary. *)
  let heap_hi = layout.Vm.Layout.heap_max + 0x1000 in
  let classify_access av =
    if av.lo >= data_lo && av.hi < data_hi then 'D'
    else if av.lo >= stk_lo && av.hi < stk_hi then 'K'
    else
      let overlaps lo hi = av.lo < hi && av.hi >= lo in
      if
        (not (overlaps data_lo data_hi))
        && (not (overlaps stk_lo stk_hi))
        && not (overlaps heap_lo heap_hi)
      then 'O'
      else 'P'
  in
  let n_acc = ref 0
  and n_prov = ref 0
  and n_poss = ref 0
  and n_oob = ref 0
  and n_unr = ref 0 in
  Array.iter
    (fun b ->
      if b.Cfg.b_pc >= 0 then begin
        let st = Option.map Array.copy bin.(b.Cfg.b_id) in
        Array.iter
          (fun (pc, ins) ->
            let si, ii =
              match P.locate prog pc with
              | Some x -> x
              | None -> assert false (* block pcs are decoded pcs *)
            in
            (match st with
            | Some s -> ab_in.(si).(ii) <- Some (Array.copy s)
            | None -> ());
            (let record c =
               incr n_acc;
               Bytes.set ab_cls.(si) ii c;
               match c with
               | 'D' | 'K' -> incr n_prov
               | 'P' -> incr n_poss
               | 'O' -> incr n_oob
               | _ -> incr n_unr
             in
             match ins with
             | Load (_, rs, off)
             | Loadb (_, rs, off)
             | Store (rs, off, _)
             | Storeb (rs, off, _) -> (
               match st with
               | None -> record 'U'
               | Some s ->
                 record (classify_access (add_iv s.(reg_index rs) (const off))))
             | _ -> ());
            match st with Some s -> transfer s ins | None -> ())
          b.Cfg.b_instrs
      end)
    blocks;
  {
    ab_prog = prog;
    ab_in;
    ab_cls;
    ab_data = (data_lo, data_hi);
    ab_stack = (stk_lo, stk_hi);
    ab_total = P.length prog;
    ab_accesses = !n_acc;
    ab_proven = !n_prov;
    ab_possible = !n_poss;
    ab_oob = !n_oob;
    ab_unreach = !n_unr;
    ab_ms = (Sys.time () -. t0) *. 1000.;
  }

let interval_at t ~pc ~reg =
  match P.locate t.ab_prog pc with
  | None -> None
  | Some (si, ii) -> (
    match t.ab_in.(si).(ii) with
    | None -> None
    | Some st -> if reg >= 0 && reg < num_regs then Some st.(reg) else None)

let cls_byte t pc =
  match P.locate t.ab_prog pc with
  | None -> 'N'
  | Some (si, ii) -> Bytes.get t.ab_cls.(si) ii

let cls_of_byte t = function
  | 'D' -> Some (Proven (fst t.ab_data, snd t.ab_data))
  | 'K' -> Some (Proven (fst t.ab_stack, snd t.ab_stack))
  | 'P' -> Some Possible
  | 'O' -> Some Oob
  | 'U' -> Some Unreachable
  | _ -> None

let classify t pc = cls_of_byte t (cls_byte t pc)

let safe_range t pc =
  match cls_byte t pc with
  | 'D' -> Some t.ab_data
  | 'K' -> Some t.ab_stack
  | _ -> None

let feasible_unsafe_write t pc =
  (match P.fetch t.ab_prog pc with
  | Some (Store _ | Storeb _) -> true
  | _ -> false)
  && match cls_byte t pc with 'P' | 'O' -> true | _ -> false

let iter_accesses t f =
  Array.iteri
    (fun si (seg : P.segment) ->
      Bytes.iteri
        (fun ii c ->
          match cls_of_byte t c with
          | Some cls -> f (seg.P.seg_base + (ii * instr_size)) cls
          | None -> ())
        t.ab_cls.(si))
    t.ab_prog.P.segments

let instructions t = t.ab_total
let accesses t = t.ab_accesses
let proven t = t.ab_proven
let possible t = t.ab_possible
let oob t = t.ab_oob
let unreachable t = t.ab_unreach

let proven_pct t =
  let reachable = t.ab_accesses - t.ab_unreach in
  if reachable <= 0 then 0.
  else float_of_int t.ab_proven /. float_of_int reachable

let analysis_ms t = t.ab_ms
