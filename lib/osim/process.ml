(** A simulated OS process: a loaded program (app + libc images), its CPU
    and memory, the network endpoint, and the syscall layer — including the
    FlashBack-style syscall-result log that keeps re-execution
    deterministic (a replayed [gettimeofday]/[random] returns what the
    original execution saw). *)

type t = {
  cpu : Vm.Cpu.t;
  mem : Vm.Memory.t;
  layout : Vm.Layout.t;
  app_image : Vm.Asm.image;
  lib_image : Vm.Asm.image;
  net : Netlog.t;
  data_symbols : (string, int) Hashtbl.t;
  absint : Static_an.Absint.t;
      (** interval abstract interpretation of the loaded code, computed
          once per load/template: feeds bounds-proof elision in the block
          tier and static antibody feasibility checks *)
  mutable compromised : string option;
      (** [Some cmd] once the exploit reached [system]/[exec] *)
  mutable exit_code : int option;
  mutable outputs : (int * string) list;  (** serviced msg id, payload (rev) *)
  mutable responded : Netlog.Int_set.t;   (** msgs whose response was committed *)
  mutable sandbox : bool;  (** drop all outputs (analysis re-execution) *)
  mutable cur_msg : int;   (** id of the message currently being serviced *)
  mutable console : string list;  (** _log output, most recent first *)
  (* FlashBack syscall-result log: random/time results recorded on first
     execution, returned verbatim on re-execution. *)
  mutable sysres : int array;
  mutable sysres_len : int;
  mutable sysres_pos : int;
  mutable clock : int;
  rng : Random.State.t;
  (* Notification hooks run after every rollback: instrumentation that keeps
     shadow state about the process (e.g. a VSEF's allocation map) re-seeds
     itself here. *)
  mutable rollback_hooks : (int * (unit -> unit)) list;
  mutable next_rollback_hook : int;
  mutable flight : Obs.Recorder.t option;
      (** the attached VM flight recorder, if any; crash reports dump its
          ring (see {!Sweeper.Coredump}) *)
}

(** Register a callback to run after every rollback of this process.
    Returns an id for {!remove_rollback_hook}. *)
let add_rollback_hook p f =
  let id = p.next_rollback_hook in
  p.next_rollback_hook <- id + 1;
  p.rollback_hooks <- (id, f) :: p.rollback_hooks;
  id

let remove_rollback_hook p id =
  p.rollback_hooks <- List.filter (fun (i, _) -> i <> id) p.rollback_hooks

let run_rollback_hooks p = List.iter (fun (_, f) -> f ()) (List.rev p.rollback_hooks)

let images p = [ p.app_image; p.lib_image ]

(** Pretty-print an address against this process's symbol tables. *)
let describe_addr p addr = Vm.Disasm.addr_to_string ~images:(images p) addr

let logged_result p gen =
  if p.sysres_pos < p.sysres_len then begin
    let v = p.sysres.(p.sysres_pos) in
    p.sysres_pos <- p.sysres_pos + 1;
    v
  end
  else begin
    let v = gen () in
    if p.sysres_len = Array.length p.sysres then begin
      let bigger = Array.make (2 * p.sysres_len) 0 in
      Array.blit p.sysres 0 bigger 0 p.sysres_len;
      p.sysres <- bigger
    end;
    p.sysres.(p.sysres_len) <- v;
    p.sysres_len <- p.sysres_len + 1;
    p.sysres_pos <- p.sysres_len;
    v
  end

let valid_range p addr len =
  len >= 0
  && Vm.Layout.valid_data p.layout addr
  && (len = 0 || Vm.Layout.valid_data p.layout (addr + len - 1))

(* The syscall implementation. Fills the effect's [e_sys] so that
   instrumentation (taint sources, allocation tracking) can observe I/O. *)
let handle_syscall p (cpu : Vm.Cpu.t) (eff : Vm.Event.effect_) sysno =
  let open Vm in
  let r0 = Cpu.get_reg cpu R0 and r1 = Cpu.get_reg cpu R1 in
  if sysno = Sysno.sys_exit then begin
    p.exit_code <- Some r0;
    cpu.halted <- true;
    eff.e_sys <- Event.Io_exit r0
  end
  else if sysno = Sysno.sys_recv then begin
    match Netlog.next_for_recv p.net with
    | None -> raise Event.Blocked
    | Some m ->
      let payload = m.Netlog.m_payload in
      let n = min (String.length payload) (max 0 (r1 - 1)) in
      if not (valid_range p r0 (n + 1)) then Cpu.set_reg cpu R0 (-1)
      else begin
        Memory.store_bytes p.mem r0 (String.sub payload 0 n);
        Memory.store_byte p.mem (r0 + n) 0;
        p.cur_msg <- m.Netlog.m_id;
        Cpu.set_reg cpu R0 n;
        eff.e_sys <- Event.Io_recv { buf = r0; len = n; msg_id = m.Netlog.m_id }
      end
  end
  else if sysno = Sysno.sys_send then begin
    if not (valid_range p r0 r1) then Cpu.set_reg cpu R0 (-1)
    else begin
      let data = Memory.load_bytes p.mem r0 r1 in
      (* Output commit: during re-execution, responses for messages already
         answered are suppressed instead of being sent twice. *)
      if p.sandbox then ()
      else if Netlog.Int_set.mem p.cur_msg p.responded then ()
      else begin
        p.outputs <- (p.cur_msg, data) :: p.outputs;
        p.responded <- Netlog.Int_set.add p.cur_msg p.responded
      end;
      Cpu.set_reg cpu R0 r1;
      eff.e_sys <- Event.Io_send { buf = r0; len = r1 }
    end
  end
  else if sysno = Sysno.sys_malloc then begin
    match Vm.Alloc.malloc p.mem p.layout r0 with
    | Some ptr ->
      Cpu.set_reg cpu R0 ptr;
      eff.e_sys <- Event.Io_alloc { ptr; size = r0 }
    | None -> Cpu.set_reg cpu R0 0
  end
  else if sysno = Sysno.sys_free then begin
    let status = Vm.Alloc.free p.mem p.layout r0 in
    Cpu.set_reg cpu R0 0;
    eff.e_sys <- Event.Io_free { ptr = r0; status }
  end
  else if sysno = Sysno.sys_log then begin
    let s = Memory.load_cstring p.mem r0 in
    p.console <- s :: p.console;
    Cpu.set_reg cpu R0 0;
    eff.e_sys <- Event.Io_other s
  end
  else if sysno = Sysno.sys_exec then begin
    let cmd = Memory.load_cstring p.mem r0 in
    p.compromised <- Some cmd;
    cpu.halted <- true;
    eff.e_sys <- Event.Io_exec { cmd }
  end
  else if sysno = Sysno.sys_random then
    Cpu.set_reg cpu R0 (logged_result p (fun () -> Random.State.bits p.rng))
  else if sysno = Sysno.sys_time then
    Cpu.set_reg cpu R0
      (logged_result p (fun () ->
           p.clock <- p.clock + 1;
           p.clock))
  else Cpu.set_reg cpu R0 (-1)

(* The process entry stub: call main, then exit with its result. *)
let start_unit =
  Vm.Asm.make_unit "_start"
    [
      Vm.Asm.Label "_start";
      Vm.Asm.Ins (Vm.Isa.Call (Vm.Isa.Lbl "main"));
      Vm.Asm.Ins (Vm.Isa.Syscall Vm.Sysno.sys_exit);
      Vm.Asm.Ins Vm.Isa.Halt;
    ]

(* The full load pipeline; also returns the compiled block table, which
   a template keeps to share with its instances. *)
let load_with_blocks ~aslr ~seed (app : Minic.Codegen.compiled) =
  let rng = Random.State.make [| seed; 0x511EE9 |] in
  let layout =
    Vm.Layout.create ~aslr ~rand:(fun bits -> Random.State.int rng (1 lsl bits)) ()
  in
  let mem = Vm.Memory.create () in
  let libc = Minic.Driver.libc () in
  (* Place data items (globals and string literals) of both units. *)
  let data_symbols = Hashtbl.create 64 in
  let cursor = ref layout.Vm.Layout.data_base in
  let place (d : Minic.Sema.tdata) =
    let addr = (!cursor + 3) / 4 * 4 in
    Hashtbl.replace data_symbols d.d_sym addr;
    (match d.d_init with
    | Some bytes -> Vm.Memory.store_bytes mem addr bytes
    | None -> ());
    cursor := addr + d.d_size
  in
  List.iter place libc.data;
  List.iter place app.data;
  if !cursor > layout.Vm.Layout.data_limit then
    failwith "Process.load: data segment overflow";
  let data_extern s = Hashtbl.find_opt data_symbols s in
  (* Library image at the (possibly randomized) lib base. *)
  let lib_image =
    Vm.Asm.load ~extern:data_extern ~base:layout.Vm.Layout.lib_code_base
      [ libc.unit_ ]
  in
  let lib_extern s =
    match Hashtbl.find_opt lib_image.Vm.Asm.symbols s with
    | Some a -> Some a
    | None -> data_extern s
  in
  let app_image =
    Vm.Asm.load ~extern:lib_extern ~base:layout.Vm.Layout.app_code_base
      [ start_unit; app.unit_ ]
  in
  let layout =
    Vm.Layout.set_code_limits layout ~app_limit:app_image.Vm.Asm.limit
      ~lib_limit:lib_image.Vm.Asm.limit
  in
  Vm.Alloc.init mem layout;
  (* The CPU's code store: both images' dense segments. *)
  let code = Vm.Program.merge [ lib_image.Vm.Asm.code; app_image.Vm.Asm.code ] in
  let cpu = Vm.Cpu.create ~mem ~layout ~code in
  let entry = Vm.Asm.symbol app_image "_start" in
  (* One CFG recovery per load, shared by the two consumers below. *)
  let cfg = Static_an.Cfg.build code in
  (* Interval abstract interpretation over the whole code store, seeded
     at the process entry point with the initial stack pointer. Its
     proven-safe access facts drive bounds-check elision in the block
     tier below and static antibody feasibility checks later. *)
  let absint =
    Static_an.Absint.analyze ~entries:[ entry ]
      ~init_sp:(layout.Vm.Layout.stack_top - 16) ~cfg ~layout code
  in
  (* Engage the block-superinstruction tier: compile every basic block.
     Hooked or invalidated blocks demote themselves to the
     per-instruction tiers, so this is transparent to every analysis
     attached later. *)
  let blocks =
    Vm.Block_compile.compile_all
      ~safe_of:(Static_an.Absint.safe_range absint)
      code
      (Static_an.Cfg.block_bounds cfg)
  in
  Vm.Cpu.install_blocks cpu blocks;
  cpu.Vm.Cpu.pc <- entry;
  Vm.Cpu.set_reg cpu Vm.Isa.SP (layout.Vm.Layout.stack_top - 16);
  let p =
    {
      cpu;
      mem;
      layout;
      app_image;
      lib_image;
      net = Netlog.create ();
      data_symbols;
      absint;
      compromised = None;
      exit_code = None;
      outputs = [];
      responded = Netlog.Int_set.empty;
      sandbox = false;
      cur_msg = -1;
      console = [];
      sysres = Array.make 64 0;
      sysres_len = 0;
      sysres_pos = 0;
      clock = 0;
      rng;
      rollback_hooks = [];
      next_rollback_hook = 0;
      flight = None;
    }
  in
  cpu.Vm.Cpu.sys_handler <- (fun cpu eff n -> handle_syscall p cpu eff n);
  (p, blocks)

(** Load a compiled application and the C library into a fresh process.

    @param aslr randomize library/heap/stack bases (default true)
    @param seed PRNG seed: drives both layout randomization and the
    process's [random] syscall, making whole experiments reproducible. *)
let load ?(aslr = true) ?(seed = 0) app =
  fst (load_with_blocks ~aslr ~seed app)

(** A loaded-but-never-run master copy of a process, for stamping out
    identical hosts without re-linking. {!load} is dominated by placement,
    assembly/linking of both images, CFG recovery, and basic-block
    compilation — all of it identical for every host sharing a layout
    seed. A template runs that pipeline once; {!instantiate} then clones
    the address space copy-on-write and rebinds a fresh CPU to the
    template's compiled blocks, so per-host cost drops to O(mapped pages)
    pointer copies.

    The template's own process must never execute (its memory is the
    shared baseline every clone COWs against), which is why the type is
    abstract. *)
type template = {
  tpl_proc : t;
  tpl_regs : Vm.Cpu.reg_snapshot;
  tpl_blocks : Vm.Cpu.compiled_blocks;
      (** compiled once, shared read-only by every instance *)
}

(** Build a template: one full {!load}. *)
let template ?(aslr = true) ?(seed = 0) compiled =
  let p, blocks = load_with_blocks ~aslr ~seed compiled in
  { tpl_proc = p; tpl_regs = Vm.Cpu.snapshot_regs p.cpu; tpl_blocks = blocks }

(** Instantiate a fresh process from a template. Behaviourally identical
    to [load ~aslr ~seed compiled] with the template's parameters: the
    address space is a COW clone, the register file (including [icount])
    is restored from the post-load snapshot, the PRNG state is a copy of
    the post-load state (layout draws already consumed), and the new CPU
    installs the template's compiled blocks with fresh per-CPU block
    state, so hooks and demotions on one instance never reach another.
    Clones share the template's layout (one ASLR draw per template — use a
    pool of templates over distinct seeds to keep population diversity)
    and share its images, code, compiled blocks, and symbol tables
    read-only. *)
let instantiate tpl =
  let src = tpl.tpl_proc in
  let mem = Vm.Memory.clone src.mem in
  let layout = Vm.Layout.copy src.layout in
  let cpu = Vm.Cpu.create ~mem ~layout ~code:src.cpu.Vm.Cpu.code in
  Vm.Cpu.restore_regs cpu tpl.tpl_regs;
  Vm.Cpu.install_blocks cpu tpl.tpl_blocks;
  let p =
    {
      cpu;
      mem;
      layout;
      app_image = src.app_image;
      lib_image = src.lib_image;
      net = Netlog.create ();
      data_symbols = src.data_symbols;
      absint = src.absint;
      compromised = None;
      exit_code = None;
      outputs = [];
      responded = Netlog.Int_set.empty;
      sandbox = false;
      cur_msg = -1;
      console = [];
      sysres = Array.make 64 0;
      sysres_len = 0;
      sysres_pos = 0;
      clock = 0;
      rng = Random.State.copy src.rng;
      rollback_hooks = [];
      next_rollback_hook = 0;
      flight = None;
    }
  in
  cpu.Vm.Cpu.sys_handler <- (fun cpu eff n -> handle_syscall p cpu eff n);
  p

(** Run the process until it halts, blocks on input, faults, or exhausts
    [fuel] instructions. *)
let run ?fuel p = Vm.Cpu.run ?fuel p.cpu

(** Deliver a network message (through the filters), stamping its
    provenance: sending host [src], per-source sequence [seq], and the
    receiver-side arrival virtual time [vtime]. *)
let send_message ?src ?seq ?vtime p payload =
  Netlog.arrive ?src ?seq ?vtime p.net payload

(** Responses committed so far, oldest first. *)
let committed_outputs p = List.rev p.outputs

(** Address of the [system] routine in this process's libc — the
    return-to-libc target an exploit must guess under ASLR. *)
let system_addr p = Vm.Asm.symbol p.lib_image "system"
