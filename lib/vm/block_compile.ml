(** Basic-block superinstruction compiler (execution tier 3).

    Each basic block is compiled once into a chain of specialized OCaml
    closures — one per instruction, register indices and immediates
    resolved at compile time — where "fall through to the next
    instruction" is a tail call and the block terminator materializes the
    final pc. Executing the block is a single indirect call from
    {!Cpu.run}'s tier loop: no per-instruction fetch, no decode, no
    hook-mask probe, no pc/icount update in the straight-line middle.
    The bounds check and the hook-mask/fuel test happen once, at block
    entry, in the dispatcher.

    The escape hatch is the same decline-before-mutate contract as
    {!Cpu.exec_fast}, per instruction: anything the uninstrumented tier
    cannot reproduce exactly — a syscall, a failing address-validity
    check, a division by zero, an unresolved symbol, an invalid indirect
    control target — makes its closure stop {e before touching any
    state}, write the declining pc back, and return the number of
    instructions already retired. The caller resumes per-instruction
    execution at that pc, so mid-block faults leave state byte-identical
    to per-instruction execution. Closures never touch [icount] or the
    retirement counters; {!Cpu.run} accounts the returned count.

    Semantics are a mirror of {!Cpu.exec_fast} (held to account by the
    three-way differential suite in [test_vm_diff]): word accesses
    validity-check only their first byte, [Pop] writes rd then SP, [Push]
    reads its operand from pre-decrement registers, only [CallInd]/[Ret]
    check their exec target, and [Halt] leaves pc at the halt
    instruction. Registers and flags always hold unsigned 32-bit values,
    so the specialized ALU closures can use plain masked arithmetic where
    {!Isa.eval_binop} round-trips through sign extension. *)

let um = Isa.word_mask

(* Compile one instruction at [pc] (position [idx] inside its block) into
   a closure. Non-terminators tail-call [next]; terminators set the final
   pc and return [idx + 1]; declines restore [pc] and return [idx].
   [safe] carries the statically proven constant address range of a
   memory access, when there is one: the access then range-checks against
   the baked-in bounds instead of walking [Layout.valid_data], and a
   violation (hijacked control flow, or a wrong proof) trips the
   elision tripwire before declining. *)
let compile_one ~pc ~idx ~(safe : (int * int) option)
    ~(next : Cpu.t -> int) (instr : Isa.instr) : Cpu.t -> int =
  let open Isa in
  let done_ = idx + 1 in
  let decline (cpu : Cpu.t) =
    cpu.Cpu.pc <- pc;
    idx
  in
  match instr with
  | Mov (rd, Imm v) ->
    let d = reg_index rd and v = to_u32 v in
    fun cpu ->
      Array.unsafe_set cpu.Cpu.regs d v;
      next cpu
  | Mov (rd, Reg rs) ->
    let d = reg_index rd and s = reg_index rs in
    fun cpu ->
      let r = cpu.Cpu.regs in
      Array.unsafe_set r d (Array.unsafe_get r s);
      next cpu
  | Bin (op, rd, Imm b) -> (
    let d = reg_index rd in
    let bu = to_u32 b in
    match op with
    | Add ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d ((Array.unsafe_get r d + bu) land um);
        next cpu
    | Sub ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d ((Array.unsafe_get r d - bu) land um);
        next cpu
    | Mul ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d (Array.unsafe_get r d * bu land um);
        next cpu
    | And ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d (Array.unsafe_get r d land bu);
        next cpu
    | Or ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d (Array.unsafe_get r d lor bu);
        next cpu
    | Xor ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d (Array.unsafe_get r d lxor bu);
        next cpu
    | Shl ->
      let sh = to_s32 b land 31 in
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d (Array.unsafe_get r d lsl sh land um);
        next cpu
    | Shr ->
      let sh = to_s32 b land 31 in
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d (Array.unsafe_get r d lsr sh);
        next cpu
    | Div ->
      let bs = to_s32 b in
      if bs = 0 then decline
      else
        fun cpu ->
          let r = cpu.Cpu.regs in
          Array.unsafe_set r d (to_u32 (to_s32 (Array.unsafe_get r d) / bs));
          next cpu
    | Mod ->
      let bs = to_s32 b in
      if bs = 0 then decline
      else
        fun cpu ->
          let r = cpu.Cpu.regs in
          Array.unsafe_set r d (to_u32 (to_s32 (Array.unsafe_get r d) mod bs));
          next cpu)
  | Bin (op, rd, Reg rs) -> (
    let d = reg_index rd and s = reg_index rs in
    match op with
    | Add ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d
          ((Array.unsafe_get r d + Array.unsafe_get r s) land um);
        next cpu
    | Sub ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d
          ((Array.unsafe_get r d - Array.unsafe_get r s) land um);
        next cpu
    | Mul ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d
          (Array.unsafe_get r d * Array.unsafe_get r s land um);
        next cpu
    | And ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d (Array.unsafe_get r d land Array.unsafe_get r s);
        next cpu
    | Or ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d (Array.unsafe_get r d lor Array.unsafe_get r s);
        next cpu
    | Xor ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d (Array.unsafe_get r d lxor Array.unsafe_get r s);
        next cpu
    | Shl ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d
          (Array.unsafe_get r d
           lsl (to_s32 (Array.unsafe_get r s) land 31)
           land um);
        next cpu
    | Shr ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        Array.unsafe_set r d
          (Array.unsafe_get r d lsr (to_s32 (Array.unsafe_get r s) land 31));
        next cpu
    | Div ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        let b = to_s32 (Array.unsafe_get r s) in
        if b = 0 then decline cpu
        else begin
          Array.unsafe_set r d (to_u32 (to_s32 (Array.unsafe_get r d) / b));
          next cpu
        end
    | Mod ->
      fun cpu ->
        let r = cpu.Cpu.regs in
        let b = to_s32 (Array.unsafe_get r s) in
        if b = 0 then decline cpu
        else begin
          Array.unsafe_set r d (to_u32 (to_s32 (Array.unsafe_get r d) mod b));
          next cpu
        end)
  | Not rd ->
    let d = reg_index rd in
    fun cpu ->
      let r = cpu.Cpu.regs in
      Array.unsafe_set r d (lnot (Array.unsafe_get r d) land um);
      next cpu
  | Neg rd ->
    let d = reg_index rd in
    fun cpu ->
      let r = cpu.Cpu.regs in
      Array.unsafe_set r d (-Array.unsafe_get r d land um);
      next cpu
  | Load (rd, rs, off) -> (
    let d = reg_index rd and s = reg_index rs in
    match safe with
    | Some (rlo, rhi) ->
      fun cpu ->
        let addr = (Array.unsafe_get cpu.Cpu.regs s + off) land um in
        if rlo <= addr && addr < rhi then begin
          Array.unsafe_set cpu.Cpu.regs d (Memory.load_word cpu.Cpu.mem addr);
          next cpu
        end
        else begin
          Cpu.elision_trip cpu ~pc;
          decline cpu
        end
    | None ->
      fun cpu ->
        let addr = (Array.unsafe_get cpu.Cpu.regs s + off) land um in
        if Layout.valid_data cpu.Cpu.layout addr then begin
          Array.unsafe_set cpu.Cpu.regs d (Memory.load_word cpu.Cpu.mem addr);
          next cpu
        end
        else decline cpu)
  | Loadb (rd, rs, off) -> (
    let d = reg_index rd and s = reg_index rs in
    match safe with
    | Some (rlo, rhi) ->
      fun cpu ->
        let addr = (Array.unsafe_get cpu.Cpu.regs s + off) land um in
        if rlo <= addr && addr < rhi then begin
          Array.unsafe_set cpu.Cpu.regs d (Memory.load_byte cpu.Cpu.mem addr);
          next cpu
        end
        else begin
          Cpu.elision_trip cpu ~pc;
          decline cpu
        end
    | None ->
      fun cpu ->
        let addr = (Array.unsafe_get cpu.Cpu.regs s + off) land um in
        if Layout.valid_data cpu.Cpu.layout addr then begin
          Array.unsafe_set cpu.Cpu.regs d (Memory.load_byte cpu.Cpu.mem addr);
          next cpu
        end
        else decline cpu)
  | Store (rbase, off, rs) -> (
    let b = reg_index rbase and s = reg_index rs in
    match safe with
    | Some (rlo, rhi) ->
      fun cpu ->
        let addr = (Array.unsafe_get cpu.Cpu.regs b + off) land um in
        if rlo <= addr && addr < rhi then begin
          Memory.store_word cpu.Cpu.mem addr (Array.unsafe_get cpu.Cpu.regs s);
          next cpu
        end
        else begin
          Cpu.elision_trip cpu ~pc;
          decline cpu
        end
    | None ->
      fun cpu ->
        let addr = (Array.unsafe_get cpu.Cpu.regs b + off) land um in
        if Layout.valid_data cpu.Cpu.layout addr then begin
          Memory.store_word cpu.Cpu.mem addr (Array.unsafe_get cpu.Cpu.regs s);
          next cpu
        end
        else decline cpu)
  | Storeb (rbase, off, rs) -> (
    let b = reg_index rbase and s = reg_index rs in
    match safe with
    | Some (rlo, rhi) ->
      fun cpu ->
        let addr = (Array.unsafe_get cpu.Cpu.regs b + off) land um in
        if rlo <= addr && addr < rhi then begin
          Memory.store_byte cpu.Cpu.mem addr (Array.unsafe_get cpu.Cpu.regs s);
          next cpu
        end
        else begin
          Cpu.elision_trip cpu ~pc;
          decline cpu
        end
    | None ->
      fun cpu ->
        let addr = (Array.unsafe_get cpu.Cpu.regs b + off) land um in
        if Layout.valid_data cpu.Cpu.layout addr then begin
          Memory.store_byte cpu.Cpu.mem addr (Array.unsafe_get cpu.Cpu.regs s);
          next cpu
        end
        else decline cpu)
  | Push (Imm v) ->
    let v = to_u32 v in
    fun cpu ->
      let r = cpu.Cpu.regs in
      let sp' = (Array.unsafe_get r 10 - 4) land um in
      if Layout.valid_data cpu.Cpu.layout sp' then begin
        Memory.store_word cpu.Cpu.mem sp' v;
        Array.unsafe_set r 10 sp';
        next cpu
      end
      else decline cpu
  | Push (Reg rs) ->
    let s = reg_index rs in
    fun cpu ->
      let r = cpu.Cpu.regs in
      let v = Array.unsafe_get r s in
      let sp' = (Array.unsafe_get r 10 - 4) land um in
      if Layout.valid_data cpu.Cpu.layout sp' then begin
        Memory.store_word cpu.Cpu.mem sp' v;
        Array.unsafe_set r 10 sp';
        next cpu
      end
      else decline cpu
  | Pop rd ->
    let d = reg_index rd in
    fun cpu ->
      let r = cpu.Cpu.regs in
      let sp = Array.unsafe_get r 10 in
      if Layout.valid_data cpu.Cpu.layout sp then begin
        let v = Memory.load_word cpu.Cpu.mem sp in
        Array.unsafe_set r d v;
        Array.unsafe_set r 10 ((sp + 4) land um);
        next cpu
      end
      else decline cpu
  | Cmp (rr, Imm y) ->
    let i = reg_index rr and y = to_u32 y in
    fun cpu ->
      cpu.Cpu.flag_a <- Array.unsafe_get cpu.Cpu.regs i;
      cpu.Cpu.flag_b <- y;
      next cpu
  | Cmp (rr, Reg rs) ->
    let i = reg_index rr and s = reg_index rs in
    fun cpu ->
      let r = cpu.Cpu.regs in
      cpu.Cpu.flag_a <- Array.unsafe_get r i;
      cpu.Cpu.flag_b <- Array.unsafe_get r s;
      next cpu
  | Jmp (Addr a) ->
    fun cpu ->
      cpu.Cpu.pc <- a;
      done_
  | Jcc (c, Addr a) -> (
    (* One closure per condition: the flags hold unsigned 32-bit values,
       so equality tests and the unsigned orders compare directly and
       only the signed orders pay sign extension. *)
    let fall = pc + instr_size in
    match c with
    | Eq ->
      fun cpu ->
        cpu.Cpu.pc <- (if cpu.Cpu.flag_a = cpu.Cpu.flag_b then a else fall);
        done_
    | Ne ->
      fun cpu ->
        cpu.Cpu.pc <- (if cpu.Cpu.flag_a <> cpu.Cpu.flag_b then a else fall);
        done_
    | Lt ->
      fun cpu ->
        cpu.Cpu.pc <-
          (if to_s32 cpu.Cpu.flag_a < to_s32 cpu.Cpu.flag_b then a else fall);
        done_
    | Le ->
      fun cpu ->
        cpu.Cpu.pc <-
          (if to_s32 cpu.Cpu.flag_a <= to_s32 cpu.Cpu.flag_b then a else fall);
        done_
    | Gt ->
      fun cpu ->
        cpu.Cpu.pc <-
          (if to_s32 cpu.Cpu.flag_a > to_s32 cpu.Cpu.flag_b then a else fall);
        done_
    | Ge ->
      fun cpu ->
        cpu.Cpu.pc <-
          (if to_s32 cpu.Cpu.flag_a >= to_s32 cpu.Cpu.flag_b then a else fall);
        done_
    | Ult ->
      fun cpu ->
        cpu.Cpu.pc <- (if cpu.Cpu.flag_a < cpu.Cpu.flag_b then a else fall);
        done_
    | Uge ->
      fun cpu ->
        cpu.Cpu.pc <- (if cpu.Cpu.flag_a >= cpu.Cpu.flag_b then a else fall);
        done_)
  | Call (Addr a) ->
    let ret = pc + instr_size in
    fun cpu ->
      let r = cpu.Cpu.regs in
      let sp' = (Array.unsafe_get r 10 - 4) land um in
      if Layout.valid_data cpu.Cpu.layout sp' then begin
        Memory.store_word cpu.Cpu.mem sp' ret;
        Array.unsafe_set r 10 sp';
        cpu.Cpu.pc <- a;
        done_
      end
      else decline cpu
  | CallInd rr ->
    let i = reg_index rr in
    let ret = pc + instr_size in
    fun cpu ->
      let r = cpu.Cpu.regs in
      let target = Array.unsafe_get r i in
      let sp' = (Array.unsafe_get r 10 - 4) land um in
      if
        Layout.valid_code cpu.Cpu.layout target
        && Layout.valid_data cpu.Cpu.layout sp'
      then begin
        Memory.store_word cpu.Cpu.mem sp' ret;
        Array.unsafe_set r 10 sp';
        cpu.Cpu.pc <- target;
        done_
      end
      else decline cpu
  | Ret ->
    fun cpu ->
      let r = cpu.Cpu.regs in
      let sp = Array.unsafe_get r 10 in
      if Layout.valid_data cpu.Cpu.layout sp then begin
        let target = Memory.load_word cpu.Cpu.mem sp in
        if Layout.valid_code cpu.Cpu.layout target then begin
          Array.unsafe_set r 10 ((sp + 4) land um);
          cpu.Cpu.pc <- target;
          done_
        end
        else decline cpu
      end
      else decline cpu
  | Halt ->
    fun cpu ->
      cpu.Cpu.pc <- pc;
      cpu.Cpu.halted <- true;
      done_
  | Nop -> next
  | Syscall _
  | Mov (_, Sym _)
  | Bin (_, _, Sym _)
  | Push (Sym _)
  | Cmp (_, Sym _)
  | Jmp (Lbl _)
  | Jcc (_, Lbl _)
  | Call (Lbl _) ->
    decline

(** Compile the [len]-instruction block starting at [entry_pc] into one
    fused closure. Built right to left so each instruction's closure
    captures its successor; a block that ends without a terminator (its
    successor is a branch target) gets a synthetic tail that materializes
    the fall-through pc. *)
let compile ?(safe_of = fun (_ : int) -> None) (code : Program.t) ~entry_pc
    ~len : Cpu.t -> int =
  match Program.locate code entry_pc with
  | None -> invalid_arg "Block_compile.compile: entry pc outside code"
  | Some (si, ii) ->
    let s = code.Program.segments.(si) in
    if len <= 0 || ii + len > Array.length s.Program.seg_instrs then
      invalid_arg "Block_compile.compile: block overruns its segment";
    let end_pc = entry_pc + (len * Isa.instr_size) in
    let fin (cpu : Cpu.t) =
      cpu.Cpu.pc <- end_pc;
      len
    in
    let rec build k next =
      if k < 0 then next
      else
        let pc = entry_pc + (k * Isa.instr_size) in
        build (k - 1)
          (compile_one ~pc ~idx:k ~safe:(safe_of pc) ~next
             s.Program.seg_instrs.(ii + k))
    in
    build (len - 1) fin

(** Compile every block of [bounds] — [(entry_pc, length)] pairs,
    typically [Static_an.Cfg.block_bounds] — into the shareable block
    table of [code]. *)
let compile_all ?safe_of (code : Program.t) (bounds : (int * int) array) =
  Cpu.index_blocks code
    (Array.map
       (fun (entry_pc, len) -> (entry_pc, len, compile ?safe_of code ~entry_pc ~len))
       bounds)

(** Compile [bounds] against the CPU's own program and install the table,
    engaging the tier for all subsequent {!Cpu.run} calls. *)
let install ?safe_of cpu bounds =
  Cpu.install_blocks cpu (compile_all ?safe_of cpu.Cpu.code bounds)
