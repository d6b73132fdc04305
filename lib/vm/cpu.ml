(** The CPU interpreter with dynamic instrumentation.

    Execution is two-phase: each step first {e computes} the full effect
    record of the current instruction (operand values, memory addresses,
    would-be writes, control destination) without touching machine state,
    then presents it to the registered pre-hooks, and only then commits.
    This is what lets a VSEF veto a single store or control transfer before
    the corruption happens, and is the analogue of attaching PIN
    instrumentation to a running process.

    That effect record is pure overhead when nobody is listening, so the
    interpreter is tiered: {!run} consults cached hook counters and a
    per-pc presence mask, and executes unhooked instructions by direct
    interpretation ({!exec_fast}) with no intermediate record. Any
    condition the fast path cannot reproduce exactly — a syscall, a
    failing address-validity check, an unresolved symbol — makes it
    decline {e before mutating any state}, and the instruction re-executes
    on the instrumented path, so deferred-fault semantics (faults recorded
    in [e_fault], raised at commit, vetoable by a VSEF) are preserved
    byte for byte. A VSEF-hardened server therefore pays slow-path cost
    only at its hooked pcs: overhead proportional to hooked instructions. *)

type hook = Event.effect_ -> unit

(* [pre_all]/[post_all] are kept in execution (registration) order, and
   [n_pre_all]/[n_post_all] cache their lengths so the dispatcher can test
   "any global hooks?" without touching the lists. *)
type hooks = {
  mutable pre_all : (int * hook) list;
  mutable post_all : (int * hook) list;
  mutable n_pre_all : int;
  mutable n_post_all : int;
  pre_at : (int, (int * hook) list) Hashtbl.t;   (** keyed by pc *)
  post_at : (int, (int * hook) list) Hashtbl.t;  (** keyed by pc *)
  mutable n_pre_at : int;   (** cached [Hashtbl.length pre_at] *)
  mutable n_post_at : int;  (** cached [Hashtbl.length post_at] *)
  mutable next_id : int;
}

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
          charged at each fast-run exit, never per instruction, so the
          hot loop is untouched. Monotonic — unlike [icount], rollback
          does not rewind it. *)
  mutable slow_retired : int;
      (** instructions retired on the instrumented path. Monotonic. *)
  mutable block_retired : int;
      (** instructions retired inside compiled basic-block
          superinstructions (tier 3). Batched per block. Monotonic. *)
  mutable fault_count : int;  (** machine faults surfaced by {!run} *)
  mutable elision_trips : int;
      (** times a bounds-elided block closure saw an address outside its
          statically proven range — each trip permanently demotes the
          block to the fully guarded tiers (see {!Block_compile}) *)
  hooks : hooks;
  pc_hook_mask : Bytes.t array;
      (** parallel to [code.segments]: byte [i] is non-zero iff some per-pc
          hook (pre or post) is installed at that instruction *)
  mutable blocks : block_table option;
      (** compiled basic-block superinstructions, when installed (see
          {!Block_compile}); [None] falls back to per-instruction tiers *)
  scratch : Event.effect_;
      (** the one effect record the instrumented path reuses for every
          instruction — hooks may read it only during their callback *)
  scr_read : Event.access;   (** scratch buffer: the instruction's one read *)
  scr_write : Event.access;  (** scratch buffer: the instruction's one write *)
  scr_mr : Event.access list;  (** preallocated [[scr_read]] *)
  scr_mw : Event.access list;  (** preallocated [[scr_write]] *)
}

(* The block-superinstruction tier's dispatch tables. [bt_entry] steers
   the tier loop (one array read per block-entry pc); [bt_cover] maps any
   instruction index to the block containing it, so hook attach/detach
   and invalidation can demote exactly the affected block. A block is
   runnable ([bt_ok]) iff it has not been invalidated ([bt_valid]) and no
   pc inside it carries a per-pc hook ([bt_hooks] = 0) — the whole
   hook-mask test the compiled body skips, taken once at entry.

   The first four fields are the compiled part, built once per code image
   ({!compiled_blocks}) and shared read-only by every CPU that installs
   it; the table holds them directly so [tier_run] pays no extra
   indirection. The last three are this CPU's own state. *)
and block_table = {
  bt_entry : int array array;
      (** per segment: instruction index -> block id at entry pcs, else -1 *)
  bt_cover : int array array;
      (** per segment: instruction index -> covering block id, else -1 *)
  bt_len : int array;  (** per block: instruction count *)
  bt_fn : (t -> int) array;
      (** per block: the fused closure. Returns the number of instructions
          retired (= length on completion; on a mid-block decline, state —
          including [pc] — is byte-identical to per-instruction execution
          up to the declining pc, which has not run). Never touches
          [icount] or the retirement counters; the caller accounts. *)
  bt_hooks : int array;  (** per block: pcs currently on the hook mask *)
  bt_valid : Bytes.t;  (** per block: ['\001'] unless invalidated *)
  bt_ok : Bytes.t;  (** per block: [bt_valid] && [bt_hooks] = 0 *)
}

(* The shareable half of a block table, for one code image. Never written
   after {!index_blocks} returns, so CPUs on different domains may install
   the same value. *)
type compiled_blocks = {
  cb_code : Program.t;  (** the image the closures were compiled from *)
  cb_entry : int array array;
  cb_cover : int array array;
  cb_len : int array;
  cb_fn : (t -> int) array;
}

type outcome =
  | Halted
  | Blocked  (** a syscall would block; re-run when input is available *)
  | Faulted of Event.fault
  | Out_of_fuel

let create ~mem ~layout ~code =
  let scr_read = { Event.a_addr = 0; a_size = 0; a_value = 0 } in
  let scr_write = { Event.a_addr = 0; a_size = 0; a_value = 0 } in
  {
    regs = Array.make Isa.num_regs 0;
    pc = 0;
    flag_a = 0;
    flag_b = 0;
    mem;
    code;
    layout;
    sys_handler = (fun _ _ _ -> ());
    halted = false;
    icount = 0;
    fast_retired = 0;
    slow_retired = 0;
    block_retired = 0;
    fault_count = 0;
    elision_trips = 0;
    hooks =
      { pre_all = []; post_all = []; n_pre_all = 0; n_post_all = 0;
        pre_at = Hashtbl.create 16; post_at = Hashtbl.create 16;
        n_pre_at = 0; n_post_at = 0; next_id = 0 };
    pc_hook_mask =
      Array.map
        (fun s -> Bytes.make (Array.length s.Program.seg_instrs) '\000')
        code.Program.segments;
    blocks = None;
    scratch =
      {
        Event.e_seq = 0;
        e_pc = 0;
        e_instr = Isa.Nop;
        e_regs_read = [];
        e_rw_count = 0;
        e_rw0 = Isa.R0;
        e_rw0_val = 0;
        e_rw1 = Isa.R0;
        e_rw1_val = 0;
        e_mem_reads = [];
        e_mem_writes = [];
        e_flags_read = false;
        e_flags_written = false;
        e_ctrl = Event.Next;
        e_ctrl_a = 0;
        e_ctrl_ret = 0;
        e_sys = Event.Io_none;
        e_fault = None;
      };
    scr_read;
    scr_write;
    scr_mr = [ scr_read ];
    scr_mw = [ scr_write ];
  }

let get_reg cpu r = cpu.regs.(Isa.reg_index r)
let set_reg cpu r v = cpu.regs.(Isa.reg_index r) <- Isa.to_u32 v

(* ------------------------------------------------------------------ *)
(* Instrumentation hook management                                     *)
(* ------------------------------------------------------------------ *)

type hook_id =
  | Pre of int
  | Post of int
  | Pre_pc of int * int
  | Post_pc of int * int

(* Keep the presence mask in sync with the pre_at/post_at tables. A pc
   outside every code segment has no mask slot — harmless, since such a
   pc can only be reached through the slow path's fetch fault anyway.

   The block tier piggybacks on the same transition: each mask-byte flip
   adjusts the covering block's hooked-pc count and its runnable flag, so
   a hook attached anywhere inside a compiled block demotes that block to
   per-instruction execution no later than the next block entry (the
   compiled body never runs user code, so no hook can appear while it is
   in flight — exactly the fast loop's staleness argument). *)
let sync_block_ok bt bid =
  Bytes.set bt.bt_ok bid
    (if bt.bt_hooks.(bid) = 0 && Bytes.get bt.bt_valid bid <> '\000' then
       '\001'
     else '\000')

let sync_mask cpu pc =
  match Program.locate cpu.code pc with
  | None -> ()
  | Some (si, ii) ->
    let present =
      Hashtbl.mem cpu.hooks.pre_at pc || Hashtbl.mem cpu.hooks.post_at pc
    in
    let mask = cpu.pc_hook_mask.(si) in
    let was = Bytes.get mask ii <> '\000' in
    Bytes.set mask ii (if present then '\001' else '\000');
    if present <> was then (
      match cpu.blocks with
      | None -> ()
      | Some bt ->
        let bid = bt.bt_cover.(si).(ii) in
        if bid >= 0 then begin
          bt.bt_hooks.(bid) <- bt.bt_hooks.(bid) + (if present then 1 else -1);
          sync_block_ok bt bid
        end)

(** Register a hook on every instruction, before state commit. *)
let add_pre_hook cpu f =
  let id = cpu.hooks.next_id in
  cpu.hooks.next_id <- id + 1;
  cpu.hooks.pre_all <- cpu.hooks.pre_all @ [ (id, f) ];
  cpu.hooks.n_pre_all <- cpu.hooks.n_pre_all + 1;
  Pre id

(** Register a hook on every instruction, after state commit (syscall
    effects are visible here). *)
let add_post_hook cpu f =
  let id = cpu.hooks.next_id in
  cpu.hooks.next_id <- id + 1;
  cpu.hooks.post_all <- cpu.hooks.post_all @ [ (id, f) ];
  cpu.hooks.n_post_all <- cpu.hooks.n_post_all + 1;
  Post id

(** Register a pre-hook that fires only at [pc] — the cheap, targeted
    instrumentation VSEFs are made of. *)
let add_pc_hook cpu ~pc f =
  let id = cpu.hooks.next_id in
  cpu.hooks.next_id <- id + 1;
  let existing = Option.value ~default:[] (Hashtbl.find_opt cpu.hooks.pre_at pc) in
  Hashtbl.replace cpu.hooks.pre_at pc (existing @ [ (id, f) ]);
  cpu.hooks.n_pre_at <- Hashtbl.length cpu.hooks.pre_at;
  sync_mask cpu pc;
  Pre_pc (pc, id)

(** Register a post-commit hook that fires only at [pc] — used by VSEFs
    that must observe a syscall's result (e.g. allocation tracking). *)
let add_pc_post_hook cpu ~pc f =
  let id = cpu.hooks.next_id in
  cpu.hooks.next_id <- id + 1;
  let existing =
    Option.value ~default:[] (Hashtbl.find_opt cpu.hooks.post_at pc)
  in
  Hashtbl.replace cpu.hooks.post_at pc (existing @ [ (id, f) ]);
  cpu.hooks.n_post_at <- Hashtbl.length cpu.hooks.post_at;
  sync_mask cpu pc;
  Post_pc (pc, id)

let remove_from_table tbl pc id =
  match Hashtbl.find_opt tbl pc with
  | None -> ()
  | Some l -> (
    match List.filter (fun (i, _) -> i <> id) l with
    | [] -> Hashtbl.remove tbl pc
    | l' -> Hashtbl.replace tbl pc l')

let remove_hook cpu = function
  | Pre id ->
    cpu.hooks.pre_all <- List.filter (fun (i, _) -> i <> id) cpu.hooks.pre_all;
    cpu.hooks.n_pre_all <- List.length cpu.hooks.pre_all
  | Post id ->
    cpu.hooks.post_all <- List.filter (fun (i, _) -> i <> id) cpu.hooks.post_all;
    cpu.hooks.n_post_all <- List.length cpu.hooks.post_all
  | Pre_pc (pc, id) ->
    remove_from_table cpu.hooks.pre_at pc id;
    cpu.hooks.n_pre_at <- Hashtbl.length cpu.hooks.pre_at;
    sync_mask cpu pc
  | Post_pc (pc, id) ->
    remove_from_table cpu.hooks.post_at pc id;
    cpu.hooks.n_post_at <- Hashtbl.length cpu.hooks.post_at;
    sync_mask cpu pc

(** Total number of per-pc hooks currently installed (VSEF footprint),
    counting both pre- and post-commit ones. *)
let pc_hook_count cpu =
  Hashtbl.fold (fun _ l acc -> acc + List.length l) cpu.hooks.pre_at 0
  + Hashtbl.fold (fun _ l acc -> acc + List.length l) cpu.hooks.post_at 0

(** Global (every-instruction) hooks currently installed, pre and post.
    Analyses that fuse their instrumentation into a private run loop use
    this to check that nobody else is listening. *)
let global_hook_count cpu = cpu.hooks.n_pre_all + cpu.hooks.n_post_all

(* ------------------------------------------------------------------ *)
(* Block-superinstruction table management (tier 3)                     *)
(* ------------------------------------------------------------------ *)

(** Index compiled basic blocks — [(entry_pc, length, closure)] triples,
    normally produced by {!Block_compile.compile_all} — into the
    shareable dispatch tables for [code]. *)
let index_blocks code (blocks : (int * int * (t -> int)) array) =
  let segs = code.Program.segments in
  let per_instr () =
    Array.map
      (fun s -> Array.make (Array.length s.Program.seg_instrs) (-1))
      segs
  in
  let cb =
    {
      cb_code = code;
      cb_entry = per_instr ();
      cb_cover = per_instr ();
      cb_len = Array.map (fun (_, len, _) -> len) blocks;
      cb_fn = Array.map (fun (_, _, fn) -> fn) blocks;
    }
  in
  Array.iteri
    (fun bid (pc, len, _) ->
      match Program.locate code pc with
      | None -> invalid_arg "Cpu.index_blocks: entry pc outside code"
      | Some (si, ii) ->
        if len <= 0 || ii + len > Array.length segs.(si).Program.seg_instrs
        then invalid_arg "Cpu.index_blocks: block overruns its segment";
        cb.cb_entry.(si).(ii) <- bid;
        Array.fill cb.cb_cover.(si) ii len bid)
    blocks;
  cb

(** Install a compiled block table on this CPU, with fresh per-CPU state:
    every block valid, and blocks whose pcs carry hooks at install time
    demoted; {!sync_mask} keeps the counts live from then on. Replaces any
    previously installed table. *)
let install_blocks cpu cb =
  if cb.cb_code != cpu.code then
    invalid_arg "Cpu.install_blocks: blocks compiled for another program";
  let nb = Array.length cb.cb_len in
  let bt =
    {
      bt_entry = cb.cb_entry;
      bt_cover = cb.cb_cover;
      bt_len = cb.cb_len;
      bt_fn = cb.cb_fn;
      bt_hooks = Array.make nb 0;
      bt_valid = Bytes.make nb '\001';
      bt_ok = Bytes.make nb '\001';
    }
  in
  if cpu.hooks.n_pre_at + cpu.hooks.n_post_at > 0 then
    Array.iteri
      (fun si mask ->
        Bytes.iteri
          (fun ii b ->
            let bid = bt.bt_cover.(si).(ii) in
            if b <> '\000' && bid >= 0 then begin
              bt.bt_hooks.(bid) <- bt.bt_hooks.(bid) + 1;
              sync_block_ok bt bid
            end)
          mask)
      cpu.pc_hook_mask;
  cpu.blocks <- Some bt

let clear_blocks cpu = cpu.blocks <- None

(** Permanently demote the block containing [pc] to the per-instruction
    tiers (e.g. because a static-analysis client no longer trusts it).
    Takes effect no later than the next block entry. *)
let invalidate_block cpu ~pc =
  match cpu.blocks with
  | None -> ()
  | Some bt -> (
    match Program.locate cpu.code pc with
    | None -> ()
    | Some (si, ii) ->
      let bid = bt.bt_cover.(si).(ii) in
      if bid >= 0 then begin
        Bytes.set bt.bt_valid bid '\000';
        sync_block_ok bt bid
      end)

(** A bounds-elided closure caught an address outside its statically
    proven range: count the trip and permanently re-enable the full
    guards for that block. The caller then declines, so the access
    re-executes under the instrumented tier's validity check —
    observable state stays byte-identical to a never-elided run. *)
let elision_trip cpu ~pc =
  cpu.elision_trips <- cpu.elision_trips + 1;
  invalidate_block cpu ~pc

(** Number of compiled blocks installed (0 when the tier is off). *)
let block_count cpu =
  match cpu.blocks with None -> 0 | Some bt -> Array.length bt.bt_len

(* ------------------------------------------------------------------ *)
(* Instrumented (slow-path) step                                       *)
(* ------------------------------------------------------------------ *)

let operand_value cpu = function
  | Isa.Imm v -> Isa.to_u32 v
  | Isa.Reg r -> get_reg cpu r
  | Isa.Sym s -> invalid_arg ("Cpu: unresolved symbol " ^ s)

(* Instruction fetch, open-coded (Program.fetch returns an option and —
   without flambda — allocates its internal loop closure; this path runs
   once per instrumented instruction). Top-level recursion: no closure. *)
let rec fetch_in segs n pc i =
  if i >= n then raise (Event.Fault (Event.Exec_violation pc))
  else
    let s = Array.unsafe_get segs i in
    if pc >= s.Program.seg_base && pc < s.Program.seg_limit then
      let off = pc - s.Program.seg_base in
      if off land (Isa.instr_size - 1) <> 0 then
        raise (Event.Fault (Event.Exec_violation pc))
      else Array.unsafe_get s.Program.seg_instrs (off / Isa.instr_size)
    else fetch_in segs n pc (i + 1)

let fetch cpu pc =
  let segs = cpu.code.Program.segments in
  fetch_in segs (Array.length segs) pc 0

(* Interned register-read lists: [e_regs_read] depends only on the static
   instruction, so the one- and two-register shapes come from these tables
   and the instrumented path allocates no cons cells for them. *)
let reg_list1 = Array.init Isa.num_regs (fun i -> [ Isa.reg_of_index i ])

let reg_list2 =
  Array.init (Isa.num_regs * Isa.num_regs) (fun k ->
      [ Isa.reg_of_index (k / Isa.num_regs);
        Isa.reg_of_index (k mod Isa.num_regs) ])

let rl1 r = Array.unsafe_get reg_list1 (Isa.reg_index r)

let rl2 a b =
  Array.unsafe_get reg_list2 ((Isa.reg_index a * Isa.num_regs) + Isa.reg_index b)

let syscall_regs = [ Isa.R0; Isa.R1; Isa.R2; Isa.R3 ]

let note_fault (eff : Event.effect_) f =
  match eff.Event.e_fault with
  | None -> eff.Event.e_fault <- Some f
  | Some _ -> ()

(* Record the instruction's single memory read in the scratch read buffer
   and expose it through [e_mem_reads]; returns the value read (0 when the
   address is invalid — the noted fault pre-empts commit anyway). *)
let scratch_read cpu size addr =
  let acc = cpu.scr_read in
  acc.Event.a_addr <- addr;
  acc.Event.a_size <- size;
  (if Layout.valid_data cpu.layout addr then
     acc.Event.a_value <-
       (if size = 4 then Memory.load_word cpu.mem addr
        else Memory.load_byte cpu.mem addr)
   else begin
     acc.Event.a_value <- 0;
     note_fault cpu.scratch (Event.Segv_read addr)
   end);
  cpu.scratch.Event.e_mem_reads <- cpu.scr_mr;
  acc.Event.a_value

(* Likewise for the single memory write (validity noted, nothing stored —
   {!commit} performs the write). *)
let scratch_write cpu size addr v =
  let acc = cpu.scr_write in
  acc.Event.a_addr <- addr;
  acc.Event.a_size <- size;
  acc.Event.a_value <- (if size = 4 then Isa.to_u32 v else v land 0xff);
  if not (Layout.valid_data cpu.layout addr) then
    note_fault cpu.scratch (Event.Segv_write addr);
  cpu.scratch.Event.e_mem_writes <- cpu.scr_mw

(* Compute the effect of [instr] at the current state, without mutating
   machine state — into the reused scratch record. Invalid accesses and
   invalid control targets are recorded in [e_fault] (first one wins)
   rather than raised, so that pre-hooks — in particular VSEFs installed
   at the very instruction that would crash — get to see and veto the
   instruction; {!commit} raises the fault. *)
let rw1 (eff : Event.effect_) r v =
  eff.Event.e_rw_count <- 1;
  eff.Event.e_rw0 <- r;
  eff.Event.e_rw0_val <- v

let fill_effect cpu instr =
  let open Isa in
  let eff = cpu.scratch in
  eff.Event.e_seq <- cpu.icount;
  eff.Event.e_pc <- cpu.pc;
  eff.Event.e_instr <- instr;
  eff.Event.e_regs_read <- [];
  eff.Event.e_rw_count <- 0;
  eff.Event.e_mem_reads <- [];
  eff.Event.e_mem_writes <- [];
  eff.Event.e_flags_read <- false;
  eff.Event.e_flags_written <- false;
  eff.Event.e_ctrl <- Event.Next;
  eff.Event.e_sys <- Event.Io_none;
  eff.Event.e_fault <- None;
  match instr with
  | Mov (rd, op) ->
    (match op with Reg r -> eff.Event.e_regs_read <- rl1 r | _ -> ());
    rw1 eff rd (operand_value cpu op)
  | Bin (op, rd, src) ->
    let v =
      try eval_binop op (get_reg cpu rd) (operand_value cpu src)
      with Division_by_zero ->
        note_fault eff Event.Div_zero;
        0
    in
    eff.Event.e_regs_read <-
      (match src with Reg r -> rl2 rd r | Imm _ | Sym _ -> rl1 rd);
    rw1 eff rd v
  | Not rd ->
    eff.Event.e_regs_read <- rl1 rd;
    rw1 eff rd (Isa.to_u32 (lnot (get_reg cpu rd)))
  | Neg rd ->
    eff.Event.e_regs_read <- rl1 rd;
    rw1 eff rd (Isa.to_u32 (-get_reg cpu rd))
  | Load (rd, rs, off) ->
    let v = scratch_read cpu 4 (Isa.to_u32 (get_reg cpu rs + off)) in
    eff.Event.e_regs_read <- rl1 rs;
    rw1 eff rd v
  | Loadb (rd, rs, off) ->
    let v = scratch_read cpu 1 (Isa.to_u32 (get_reg cpu rs + off)) in
    eff.Event.e_regs_read <- rl1 rs;
    rw1 eff rd v
  | Store (rbase, off, rs) ->
    scratch_write cpu 4 (Isa.to_u32 (get_reg cpu rbase + off)) (get_reg cpu rs);
    eff.Event.e_regs_read <- rl2 rbase rs
  | Storeb (rbase, off, rs) ->
    scratch_write cpu 1 (Isa.to_u32 (get_reg cpu rbase + off)) (get_reg cpu rs);
    eff.Event.e_regs_read <- rl2 rbase rs
  | Push op ->
    let sp' = Isa.to_u32 (get_reg cpu SP - 4) in
    scratch_write cpu 4 sp' (operand_value cpu op);
    eff.Event.e_regs_read <-
      (match op with Reg r -> rl2 SP r | Imm _ | Sym _ -> rl1 SP);
    rw1 eff SP sp'
  | Pop rd ->
    let sp = get_reg cpu SP in
    let v = scratch_read cpu 4 sp in
    eff.Event.e_regs_read <- rl1 SP;
    eff.Event.e_rw_count <- 2;
    eff.Event.e_rw0 <- rd;
    eff.Event.e_rw0_val <- v;
    eff.Event.e_rw1 <- SP;
    eff.Event.e_rw1_val <- Isa.to_u32 (sp + 4)
  | Cmp (r, op) ->
    eff.Event.e_regs_read <-
      (match op with Reg r2 -> rl2 r r2 | Imm _ | Sym _ -> rl1 r);
    eff.Event.e_flags_written <- true
  | Jmp (Addr a) ->
    eff.Event.e_ctrl <- Event.Jump;
    eff.Event.e_ctrl_a <- a
  | Jcc (c, Addr a) ->
    eff.Event.e_flags_read <- true;
    if eval_cond c cpu.flag_a cpu.flag_b then begin
      eff.Event.e_ctrl <- Event.Jump;
      eff.Event.e_ctrl_a <- a
    end
  | Call (Addr a) ->
    let sp' = Isa.to_u32 (get_reg cpu SP - 4) in
    let ret = cpu.pc + Isa.instr_size in
    scratch_write cpu 4 sp' ret;
    eff.Event.e_regs_read <- rl1 SP;
    rw1 eff SP sp';
    eff.Event.e_ctrl <- Event.Call_to;
    eff.Event.e_ctrl_a <- a;
    eff.Event.e_ctrl_ret <- ret
  | CallInd r ->
    let target = get_reg cpu r in
    if not (Layout.valid_code cpu.layout target) then
      note_fault eff (Event.Exec_violation target);
    let sp' = Isa.to_u32 (get_reg cpu SP - 4) in
    let ret = cpu.pc + Isa.instr_size in
    scratch_write cpu 4 sp' ret;
    eff.Event.e_regs_read <- rl2 r SP;
    rw1 eff SP sp';
    eff.Event.e_ctrl <- Event.Call_to;
    eff.Event.e_ctrl_a <- target;
    eff.Event.e_ctrl_ret <- ret
  | Ret ->
    let sp = get_reg cpu SP in
    let v = scratch_read cpu 4 sp in
    if not (Layout.valid_code cpu.layout v) then
      note_fault eff (Event.Exec_violation v);
    eff.Event.e_regs_read <- rl1 SP;
    rw1 eff SP (Isa.to_u32 (sp + 4));
    eff.Event.e_ctrl <- Event.Ret_to;
    eff.Event.e_ctrl_a <- v
  | Syscall n ->
    eff.Event.e_regs_read <- syscall_regs;
    eff.Event.e_ctrl <- Event.Sys;
    eff.Event.e_ctrl_a <- n
  | Halt -> eff.Event.e_ctrl <- Event.Stop
  | Nop -> ()
  | Jmp (Lbl s) | Jcc (_, Lbl s) | Call (Lbl s) ->
    invalid_arg ("Cpu: unresolved label " ^ s)

(* Lists are stored in execution order, so no per-step reversal. A
   top-level recursive loop, not [List.iter]: the iter closure would
   capture [eff] and allocate on every instrumented step. *)
let rec run_hooks hooks eff =
  match hooks with
  | [] -> ()
  | (_, f) :: tl ->
    f eff;
    run_hooks tl eff

let rec do_mem_writes mem = function
  | [] -> ()
  | (a : Event.access) :: tl ->
    if a.a_size = 4 then Memory.store_word mem a.a_addr a.a_value
    else Memory.store_byte mem a.a_addr a.a_value;
    do_mem_writes mem tl

(* Commit an effect: apply register writes, memory writes, pc update.
   A pending fault is raised first, before any state changes. *)
let commit cpu (eff : Event.effect_) =
  (match eff.e_fault with
  | Some f -> raise (Event.Fault f)
  | None -> ());
  (match eff.e_mem_writes with
  | [] -> ()
  | [ a ] ->
    if a.a_size = 4 then Memory.store_word cpu.mem a.a_addr a.a_value
    else Memory.store_byte cpu.mem a.a_addr a.a_value
  | l -> do_mem_writes cpu.mem l);
  if eff.e_rw_count >= 1 then begin
    set_reg cpu eff.e_rw0 eff.e_rw0_val;
    if eff.e_rw_count >= 2 then set_reg cpu eff.e_rw1 eff.e_rw1_val
  end;
  if eff.e_flags_written then begin
    match eff.e_instr with
    | Isa.Cmp (r, op) ->
      (* Flag semantics: record the compared values. The register write
         above cannot alias these (Cmp writes no registers). *)
      cpu.flag_a <- get_reg cpu r;
      cpu.flag_b <- operand_value cpu op
    | _ -> ()
  end;
  match eff.e_ctrl with
  | Next -> cpu.pc <- cpu.pc + Isa.instr_size
  | Jump | Ret_to | Call_to -> cpu.pc <- eff.e_ctrl_a
  | Sys ->
    cpu.sys_handler cpu eff eff.e_ctrl_a;
    cpu.pc <- cpu.pc + Isa.instr_size
  | Stop -> cpu.halted <- true

(** Execute one instruction on the instrumented path. Returns the
    committed effect. Raises [Event.Fault] on machine faults,
    [Event.Blocked] when a syscall would block (state unchanged, pc still
    at the syscall), and propagates any exception raised by a hook
    (detections) before commit. *)
let step cpu =
  let pc = cpu.pc in
  let instr = fetch cpu pc in
  fill_effect cpu instr;
  let eff = cpu.scratch in
  if cpu.hooks.n_pre_at <> 0 then (
    match Hashtbl.find_opt cpu.hooks.pre_at pc with
    | Some hs -> run_hooks hs eff
    | None -> ());
  run_hooks cpu.hooks.pre_all eff;
  commit cpu eff;
  cpu.icount <- cpu.icount + 1;
  cpu.slow_retired <- cpu.slow_retired + 1;
  if cpu.hooks.n_post_at <> 0 then (
    match Hashtbl.find_opt cpu.hooks.post_at pc with
    | Some hs -> run_hooks hs eff
    | None -> ());
  run_hooks cpu.hooks.post_all eff;
  eff

(* ------------------------------------------------------------------ *)
(* Uninstrumented fast path                                            *)
(* ------------------------------------------------------------------ *)

(* The fast path indexes code and masks with shifts; hold it to the ISA's
   actual encoding width. *)
let () = assert (Isa.instr_size = 4)

(* Helpers are top-level (not closures inside [exec_fast]) so the hot loop
   allocates nothing. *)
let advance cpu =
  cpu.pc <- cpu.pc + Isa.instr_size;
  cpu.icount <- cpu.icount + 1

let jump cpu a =
  cpu.pc <- a;
  cpu.icount <- cpu.icount + 1

(* rd := rd <op> b, declining division by zero (the slow path turns that
   into a [Div_zero] fault). [Isa.eval_binop] raises only for Div/Mod. *)
let bin_fast cpu rd op b =
  match (op : Isa.binop) with
  | Div | Mod ->
    if Isa.to_s32 b = 0 then false
    else begin
      let i = Isa.reg_index rd in
      Array.unsafe_set cpu.regs i
        (Isa.eval_binop op (Array.unsafe_get cpu.regs i) b);
      advance cpu;
      true
    end
  | Add | Sub | Mul | And | Or | Xor | Shl | Shr ->
    let i = Isa.reg_index rd in
    Array.unsafe_set cpu.regs i
      (Isa.eval_binop op (Array.unsafe_get cpu.regs i) b);
    advance cpu;
    true

let push_fast cpu v =
  let sp' = Isa.to_u32 (Array.unsafe_get cpu.regs 10 - 4) in
  if Layout.valid_data cpu.layout sp' then begin
    Memory.store_word cpu.mem sp' v;
    Array.unsafe_set cpu.regs 10 sp';
    advance cpu;
    true
  end
  else false

(* Direct interpretation of one instruction: no effect record, no hook
   dispatch, no allocation, no exception traffic. Mirrors
   compute_effect/commit exactly: word accesses validity-check only their
   first byte, Pop writes rd then SP (so [Pop SP] leaves sp+4), Push reads
   the operand from pre-decrement registers, only CallInd/Ret check their
   exec target, and Halt leaves pc in place. Anything that would fault,
   block, or needs the effect record (syscalls, unresolved symbols)
   returns [false] before touching state, and the instruction re-runs on
   the slow path where deferred-fault/veto semantics live. Returns [true]
   when the instruction fully executed (icount already bumped). *)
let exec_fast cpu (instr : Isa.instr) =
  let open Isa in
  let regs = cpu.regs in
  match instr with
  | Mov (rd, Imm v) ->
    Array.unsafe_set regs (reg_index rd) (to_u32 v);
    advance cpu;
    true
  | Mov (rd, Reg rs) ->
    Array.unsafe_set regs (reg_index rd) (Array.unsafe_get regs (reg_index rs));
    advance cpu;
    true
  | Bin (op, rd, Imm b) -> bin_fast cpu rd op (to_u32 b)
  | Bin (op, rd, Reg rs) ->
    bin_fast cpu rd op (Array.unsafe_get regs (reg_index rs))
  | Not rd ->
    let i = reg_index rd in
    Array.unsafe_set regs i (to_u32 (lnot (Array.unsafe_get regs i)));
    advance cpu;
    true
  | Neg rd ->
    let i = reg_index rd in
    Array.unsafe_set regs i (to_u32 (-Array.unsafe_get regs i));
    advance cpu;
    true
  | Load (rd, rs, off) ->
    let addr = to_u32 (Array.unsafe_get regs (reg_index rs) + off) in
    if Layout.valid_data cpu.layout addr then begin
      Array.unsafe_set regs (reg_index rd) (Memory.load_word cpu.mem addr);
      advance cpu;
      true
    end
    else false
  | Loadb (rd, rs, off) ->
    let addr = to_u32 (Array.unsafe_get regs (reg_index rs) + off) in
    if Layout.valid_data cpu.layout addr then begin
      Array.unsafe_set regs (reg_index rd) (Memory.load_byte cpu.mem addr);
      advance cpu;
      true
    end
    else false
  | Store (rbase, off, rs) ->
    let addr = to_u32 (Array.unsafe_get regs (reg_index rbase) + off) in
    if Layout.valid_data cpu.layout addr then begin
      Memory.store_word cpu.mem addr (Array.unsafe_get regs (reg_index rs));
      advance cpu;
      true
    end
    else false
  | Storeb (rbase, off, rs) ->
    let addr = to_u32 (Array.unsafe_get regs (reg_index rbase) + off) in
    if Layout.valid_data cpu.layout addr then begin
      Memory.store_byte cpu.mem addr (Array.unsafe_get regs (reg_index rs));
      advance cpu;
      true
    end
    else false
  | Push (Imm v) -> push_fast cpu (to_u32 v)
  | Push (Reg rs) -> push_fast cpu (Array.unsafe_get regs (reg_index rs))
  | Pop rd ->
    let sp = Array.unsafe_get regs 10 in
    if Layout.valid_data cpu.layout sp then begin
      let v = Memory.load_word cpu.mem sp in
      Array.unsafe_set regs (reg_index rd) v;
      Array.unsafe_set regs 10 (to_u32 (sp + 4));
      advance cpu;
      true
    end
    else false
  | Cmp (r, Imm y) ->
    cpu.flag_a <- Array.unsafe_get regs (reg_index r);
    cpu.flag_b <- to_u32 y;
    advance cpu;
    true
  | Cmp (r, Reg rs) ->
    cpu.flag_a <- Array.unsafe_get regs (reg_index r);
    cpu.flag_b <- Array.unsafe_get regs (reg_index rs);
    advance cpu;
    true
  | Jmp (Addr a) ->
    jump cpu a;
    true
  | Jcc (c, Addr a) ->
    if eval_cond c cpu.flag_a cpu.flag_b then jump cpu a else advance cpu;
    true
  | Call (Addr a) ->
    let sp' = to_u32 (Array.unsafe_get regs 10 - 4) in
    if Layout.valid_data cpu.layout sp' then begin
      Memory.store_word cpu.mem sp' (cpu.pc + instr_size);
      Array.unsafe_set regs 10 sp';
      jump cpu a;
      true
    end
    else false
  | CallInd r ->
    let target = Array.unsafe_get regs (reg_index r) in
    let sp' = to_u32 (Array.unsafe_get regs 10 - 4) in
    if
      Layout.valid_code cpu.layout target && Layout.valid_data cpu.layout sp'
    then begin
      Memory.store_word cpu.mem sp' (cpu.pc + instr_size);
      Array.unsafe_set regs 10 sp';
      jump cpu target;
      true
    end
    else false
  | Ret ->
    let sp = Array.unsafe_get regs 10 in
    if Layout.valid_data cpu.layout sp then begin
      let target = Memory.load_word cpu.mem sp in
      if Layout.valid_code cpu.layout target then begin
        Array.unsafe_set regs 10 (to_u32 (sp + 4));
        jump cpu target;
        true
      end
      else false
    end
    else false
  | Halt ->
    cpu.halted <- true;
    cpu.icount <- cpu.icount + 1;
    true
  | Nop ->
    advance cpu;
    true
  | Syscall _
  | Mov (_, Sym _)
  | Bin (_, _, Sym _)
  | Push (Sym _)
  | Cmp (_, Sym _)
  | Jmp (Lbl _)
  | Jcc (_, Lbl _)
  | Call (Lbl _) ->
    false

(* Tight fast loop pinned to one segment. While the pc stays inside [s]
   and off the hook mask it executes by direct interpretation with no
   per-instruction hook-counter reads and no segment search. Sound
   because [exec_fast] runs no user code, so no hook can be installed
   while this loop spins; every exit returns to the dispatcher, which
   re-checks the global counters after any instrumented step. Top-level
   recursion, not a local closure: the hot loop must not allocate.
   Returns the remaining fuel (unchanged iff it made no progress). *)
let rec fast_run cpu s mask n =
  if cpu.halted || n <= 0 then n
  else
    let pc = cpu.pc in
    let off = pc - s.Program.seg_base in
    if off < 0 || pc >= s.Program.seg_limit then n (* left the segment *)
    else if off land 3 <> 0 then n (* misaligned: slow path faults *)
    else
      let idx = off lsr 2 in
      if Bytes.unsafe_get mask idx <> '\000' then n (* hooked pc *)
      else if exec_fast cpu (Array.unsafe_get s.Program.seg_instrs idx) then
        fast_run cpu s mask (n - 1)
      else n (* declined (before any state change): slow path re-runs *)

(* Tier-3 loop: like [fast_run], but when the pc sits on a runnable block
   entry (and enough fuel remains to retire the whole block — the
   block-entry fuel clamp that keeps {!run}'s [fuel] exact, so scheduler
   quanta and checkpoint thresholds land on the same icounts as
   per-instruction execution), the block's compiled closure executes the
   whole body with no per-instruction fetch/decode/mask work. Everything
   else — mid-block resumption after a decline, demoted (hooked or
   invalidated) blocks, the fuel tail — retires one instruction at a time
   through [exec_fast]. Declines return with fuel reflecting the retired
   prefix; the dispatcher's no-progress protocol (fuel unchanged => one
   instrumented [step]) is preserved because a decline at the current pc
   with no prior progress returns [n] untouched. *)
let rec tier_run cpu s mask bt entry n =
  if cpu.halted || n <= 0 then n
  else
    let pc = cpu.pc in
    let off = pc - s.Program.seg_base in
    if off < 0 || pc >= s.Program.seg_limit then n (* left the segment *)
    else if off land 3 <> 0 then n (* misaligned: slow path faults *)
    else
      let idx = off lsr 2 in
      if Bytes.unsafe_get mask idx <> '\000' then n (* hooked pc *)
      else
        let bid = Array.unsafe_get entry idx in
        if
          bid >= 0
          && Bytes.unsafe_get bt.bt_ok bid <> '\000'
          && n >= Array.unsafe_get bt.bt_len bid
        then begin
          let r = (Array.unsafe_get bt.bt_fn bid) cpu in
          cpu.icount <- cpu.icount + r;
          cpu.block_retired <- cpu.block_retired + r;
          if r = Array.unsafe_get bt.bt_len bid then
            tier_run cpu s mask bt entry (n - r)
          else n - r (* declined mid-block: slow path re-runs at [pc] *)
        end
        else if exec_fast cpu (Array.unsafe_get s.Program.seg_instrs idx) then begin
          cpu.fast_retired <- cpu.fast_retired + 1;
          tier_run cpu s mask bt entry (n - 1)
        end
        else n (* declined (before any state change): slow path re-runs *)

(* The segment-dispatch driver every run loop shares. Whenever the pc lies
   in segment [i], [burst i s n] runs a burst of instructions pinned to
   [s] and returns the remaining fuel — unchanged iff it made no progress,
   in which case the instruction takes the instrumented [step] (which
   advances, faults, or blocks), so every trip round the loop makes
   progress. A pc outside every segment also takes [step], which faults
   there. The exception handler lives outside the loop; [go]/[dispatch]
   stay tail-recursive (they carry no handler of their own). *)
let drive cpu fuel burst =
  let segs = cpu.code.Program.segments in
  let rec go n =
    if cpu.halted then Halted
    else if n <= 0 then Out_of_fuel
    else dispatch n cpu.pc 0
  and dispatch n pc i =
    if i >= Array.length segs then begin
      ignore (step cpu : Event.effect_);
      go (n - 1)
    end
    else
      let s = Array.unsafe_get segs i in
      if pc >= s.Program.seg_base && pc < s.Program.seg_limit then begin
        let n' = burst i s n in
        if n' = n then begin
          ignore (step cpu : Event.effect_);
          go (n' - 1)
        end
        else go n'
      end
      else dispatch n pc (i + 1)
  in
  try go fuel with
  | Event.Fault f ->
    cpu.fault_count <- cpu.fault_count + 1;
    Faulted f
  | Event.Blocked -> Blocked

(** Run until halt, fault, block, or [fuel] instructions. Fault state is
    preserved (pc stays at the faulting instruction) so the core-dump
    analyzer can inspect it. Unhooked instructions execute on the
    uninstrumented fast path; observable semantics are identical to
    stepping with {!step}. *)
let run ?(fuel = max_int) cpu =
  drive cpu fuel (fun i s n ->
      let hs = cpu.hooks in
      if hs.n_pre_all <> 0 || hs.n_post_all <> 0 then n (* every pc is hooked *)
      else
        match cpu.blocks with
        | Some bt ->
          (* Block tier engaged: [tier_run] accounts its own retirement
             (block-batched and per-single), so no batch charge here. *)
          tier_run cpu s
            (Array.unsafe_get cpu.pc_hook_mask i)
            bt
            (Array.unsafe_get bt.bt_entry i)
            n
        | None ->
          let n' = fast_run cpu s (Array.unsafe_get cpu.pc_hook_mask i) n in
          (* batch-account the whole fast burst at its exit *)
          cpu.fast_retired <- cpu.fast_retired + (n - n');
          n')

(** Replay with one analysis attached: [hook] is installed as a global
    post-hook for the duration and removed on every exit, exceptions
    included. When it is then the only instrumentation, the replay runs
    on {!drive} with the analysis's own [burst] — a segment-pinned loop
    over {!exec_fast} that updates its state alongside, and on a decline
    runs the instruction through {!step} so [hook] sees it. The bursts'
    work is charged to [fast_retired] (everything executed minus what
    was stepped), keeping the retirement audit exact. With foreign hooks
    attached it falls back to {!run}, where [hook] sees every
    instruction and the foreign hooks keep firing. *)
let run_fused ?(fuel = max_int) cpu ~hook burst =
  let id = add_post_hook cpu hook in
  Fun.protect ~finally:(fun () -> remove_hook cpu id) (fun () ->
      let hs = cpu.hooks in
      if
        hs.n_pre_all + hs.n_post_all = 1 && hs.n_pre_at = 0 && hs.n_post_at = 0
      then begin
        let before = cpu.icount and slow0 = cpu.slow_retired in
        let o = drive cpu fuel burst in
        cpu.fast_retired <-
          cpu.fast_retired + (cpu.icount - before) - (cpu.slow_retired - slow0);
        o
      end
      else run ~fuel cpu)

(* ------------------------------------------------------------------ *)
(* Snapshot/restore of CPU register state (memory snapshots live in     *)
(* Memory; the OS layer combines both into checkpoints).                *)
(* ------------------------------------------------------------------ *)

type reg_snapshot = {
  s_regs : int array;
  s_pc : int;
  s_flags : int * int;
  s_halted : bool;
  s_icount : int;
}

let snapshot_regs cpu =
  {
    s_regs = Array.copy cpu.regs;
    s_pc = cpu.pc;
    s_flags = (cpu.flag_a, cpu.flag_b);
    s_halted = cpu.halted;
    s_icount = cpu.icount;
  }

let restore_regs cpu s =
  Array.blit s.s_regs 0 cpu.regs 0 Isa.num_regs;
  cpu.pc <- s.s_pc;
  (let a, b = s.s_flags in
   cpu.flag_a <- a;
   cpu.flag_b <- b);
  cpu.halted <- s.s_halted;
  cpu.icount <- s.s_icount
