(** Static taint reachability: an over-approximation of the dynamic
    engine in [Sweeper.Taint] over every execution that follows the CFG.

    The abstract state at an instruction is one int: bits
    [0 .. num_regs-1] say "this register may hold tainted data here" and
    {!mem_bit} says "some memory byte may be tainted" (one global
    may-bit — the analysis never tracks addresses, which is what makes
    it a few sweeps over the code instead of a points-to problem). The
    transfer function mirrors the dynamic propagation rules
    ([Taint.on_effect]) abstractly: a register move copies the source
    bit, a load may pick up taint iff memory may be tainted, a store of
    a possibly-tainted register sets the memory bit (and a provably
    clean store cannot {e clear} it — the bit covers all addresses).
    Taint enters only at [Syscall sys_recv]; no syscall clears the
    [r0] bit statically because the syscall layer's failure paths leave
    [r0] untouched.

    Control flow is handled without a call-string or points-to
    analysis. Direct jumps/branches/calls propagate to their decoded
    targets. [Ret] joins its out-state into a single {e return state}
    [R] that flows into every {e return site} — the instruction after
    any [Call]/[CallInd]. This is the context-insensitive "a return
    goes to some return site" model: it covers ordinary returns and
    even a smashed return address that lands on the {e wrong} return
    site, but not one landing at an arbitrary pc. A return hijacked
    into straight-line code leaves the CFG, and what the dynamic engine
    marks after it can lie outside the result. [CallInd] and unresolved
    targets (which decoded images do not contain) join into a
    broadcast-to-everywhere hijack state [H], joined into every
    instruction's in-state.

    The result is [S] (may-propagate): the pcs where the dynamic engine
    could mark a propagation ([Taint.mark_if] with a non-zero label) on
    some CFG-following execution. Every pc in the [t_prop_pcs] of such a
    run is in [S] — the contract the qcheck differential suite enforces.
    Consumers use [S] to vet pcs that claim to come from an honest
    dynamic analysis ([Antibody.validate_static]). *)

let mem_bit = 1 lsl Vm.Isa.num_regs

type t = {
  sa_prog : Vm.Program.t;
  sa_prop : Bytes.t array;  (** [S] as per-segment masks, like prop_mask *)
  sa_total : int;
  sa_prop_count : int;
  sa_ms : float;  (** analysis wall time, milliseconds *)
}

let bit r = 1 lsl Vm.Isa.reg_index r

(* Abstract transfer: out-state of [instr] given in-state [s]. Mirrors
   [Taint.on_effect] over the (reg-bits, mem-bit) abstraction. *)
let transfer (instr : Vm.Isa.instr) s =
  match instr with
  | Mov (rd, Reg rs) ->
    if s land bit rs <> 0 then s lor bit rd else s land lnot (bit rd)
  | Mov (rd, (Imm _ | Sym _)) -> s land lnot (bit rd)
  | Bin (_, rd, Reg rs) -> if s land bit rs <> 0 then s lor bit rd else s
  | Bin (_, _, (Imm _ | Sym _)) | Not _ | Neg _ -> s
  | Load (rd, _, _) | Loadb (rd, _, _) | Pop rd ->
    if s land mem_bit <> 0 then s lor bit rd else s land lnot (bit rd)
  | Store (_, _, rs) | Storeb (_, _, rs) | Push (Reg rs) ->
    if s land bit rs <> 0 then s lor mem_bit else s
  | Push (Imm _ | Sym _) -> s
  | Syscall n -> if n = Vm.Sysno.sys_recv then s lor mem_bit else s
  | Call _ | CallInd _ | Cmp _ | Jmp _ | Jcc _ | Ret | Halt | Nop -> s

(* May the dynamic engine mark this pc as a propagation site
   ([mark_if] with non-zero label)? *)
let may_mark_in (instr : Vm.Isa.instr) s =
  match instr with
  | Mov (_, Reg rs) -> s land bit rs <> 0
  | Mov (_, (Imm _ | Sym _)) -> false
  | Bin (_, rd, Reg rs) -> s land (bit rd lor bit rs) <> 0
  | Bin (_, rd, (Imm _ | Sym _)) -> s land bit rd <> 0
  | Not r | Neg r -> s land bit r <> 0
  | Load _ | Loadb _ | Pop _ -> s land mem_bit <> 0
  | Store (_, _, rs) | Storeb (_, _, rs) | Push (Reg rs) -> s land bit rs <> 0
  | Push (Imm _ | Sym _) -> false
  | Call _ | CallInd _ | Cmp _ | Jmp _ | Jcc _ | Ret | Syscall _ | Halt | Nop
    ->
    false

let analyze (prog : Vm.Program.t) : t =
  let t0 = Sys.time () in
  let segs = prog.Vm.Program.segments in
  let states =
    Array.map
      (fun s -> Array.make (Array.length s.Vm.Program.seg_instrs) 0)
      segs
  in
  (* Return sites: the instruction a balanced [Ret] resumes at — located
     by address ([pc_of_call + 4]) so a call ending one segment still
     finds its return site at the next segment's base. *)
  let ret_site =
    Array.map
      (fun s -> Bytes.make (Array.length s.Vm.Program.seg_instrs) '\000')
      segs
  in
  Array.iter
    (fun seg ->
      Array.iteri
        (fun i (instr : Vm.Isa.instr) ->
          match instr with
          | Call _ | CallInd _ -> (
            let ra =
              seg.Vm.Program.seg_base + ((i + 1) * Vm.Isa.instr_size)
            in
            match Vm.Program.locate prog ra with
            | Some (sj, j) -> Bytes.set ret_site.(sj) j '\001'
            | None -> ())
          | _ -> ())
        seg.Vm.Program.seg_instrs)
    segs;
  let is_ret_site si i = Bytes.get ret_site.(si) i <> '\000' in
  let h = ref 0 and r = ref 0 in
  let changed = ref true in
  let join_into si i v =
    let cur = states.(si).(i) in
    if cur lor v <> cur then begin
      states.(si).(i) <- cur lor v;
      changed := true
    end
  in
  let join_target a v =
    match Vm.Program.locate prog a with
    | Some (si, i) -> join_into si i v
    | None -> ()  (* branches to unmapped code fault before executing *)
  in
  let join_h v =
    if !h lor v <> !h then begin
      h := !h lor v;
      changed := true
    end
  in
  let join_r v =
    if !r lor v <> !r then begin
      r := !r lor v;
      changed := true
    end
  in
  (* Sweep to fixpoint. States, [H], and [R] only grow and the lattice is
     finite (num_regs + 1 bits), so this terminates. *)
  while !changed do
    changed := false;
    Array.iteri
      (fun si seg ->
        let instrs = seg.Vm.Program.seg_instrs in
        let n = Array.length instrs in
        for i = 0 to n - 1 do
          let instr = instrs.(i) in
          let s_in = states.(si).(i) lor !h in
          let s_in = if is_ret_site si i then s_in lor !r else s_in in
          let out = transfer instr s_in in
          let next () = if i + 1 < n then join_into si (i + 1) out in
          match instr with
          | Jmp (Addr a) -> join_target a out
          | Jcc (_, Addr a) ->
            join_target a out;
            next ()
          | Call (Addr a) ->
            (* The return site is fed by the callee's [Ret] through [R],
               not by a direct edge — the machine really does continue
               wherever the popped address says. *)
            join_target a out
          | Ret -> join_r out
          | Jmp (Lbl _) | Call (Lbl _) | CallInd _ -> join_h out
          | Jcc (_, Lbl _) ->
            join_h out;
            next ()
          | Halt -> ()
          | Mov _ | Bin _ | Not _ | Neg _ | Load _ | Loadb _ | Store _
          | Storeb _ | Push _ | Pop _ | Cmp _ | Syscall _ | Nop ->
            next ()
        done)
      segs
  done;
  (* Fold [H] (and [R] at return sites) into every state to read off
     [S]. *)
  let prop =
    Array.map
      (fun s -> Bytes.make (Array.length s.Vm.Program.seg_instrs) '\000')
      segs
  in
  let total = ref 0 and n_prop = ref 0 in
  Array.iteri
    (fun si seg ->
      Array.iteri
        (fun i instr ->
          let s = states.(si).(i) lor !h in
          let s = if is_ret_site si i then s lor !r else s in
          incr total;
          if may_mark_in instr s then begin
            Bytes.set prop.(si) i '\001';
            incr n_prop
          end)
        seg.Vm.Program.seg_instrs)
    segs;
  {
    sa_prog = prog;
    sa_prop = prop;
    sa_total = !total;
    sa_prop_count = !n_prop;
    sa_ms = (Sys.time () -. t0) *. 1000.;
  }

let may_propagate t pc =
  match Vm.Program.locate t.sa_prog pc with
  | Some (si, i) -> Bytes.get t.sa_prop.(si) i <> '\000'
  | None -> false

let total t = t.sa_total
let prop_count t = t.sa_prop_count
let analysis_ms t = t.sa_ms
