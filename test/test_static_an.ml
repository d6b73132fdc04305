(* The static analysis layer: CFG recovery edge cases, the stack-depth
   bound, and the contract of static taint reachability:

   - for random MiniC programs and two real exploit replays, every pc
     the dynamic taint engine propagates at must be in the static
     may-propagate set [S];
   - [S] covers CFG-following executions only: a hand-built hijack that
     returns into straight-line code propagates taint at a pc outside
     [S], which pins that scope;
   - a real antibody's taint filter validates against [S].

   Plus the interval abstract interpretation ([Absint]) and everything
   hanging off it:

   - containment: on clean runs, every dynamically observed register
     value and effective address lies inside the static interval at its
     pc;
   - bounds-check elision is invisible across clean and hijack recipes,
     and its residual-range tripwire demotes a block the moment a
     "proven" fact is violated;
   - the antibody feasibility bar accepts dynamically derived bundles
     and rejects fabricated ones;
   - static vs dynamic on every registry app: each overflow-class store
     the membug detector reports is a statically feasible unsafe write,
     and each honest bundle clears both static bars. *)

module O = Sweeper.Orchestrator
module St = Static_an.Staint
module Cfg = Static_an.Cfg
module Df = Static_an.Dataflow

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* Deterministic qcheck runs by default; QCHECK_SEED overrides. *)
let qcheck_rand () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string (String.trim s) with _ -> 0x5EED)
    | None -> 0x5EED
  in
  Random.State.make [| seed |]

(* ------------------------------------------------------------------ *)
(* CFG edge cases                                                      *)
(* ------------------------------------------------------------------ *)

open Vm.Isa

let test_cfg_empty_segment () =
  let prog =
    Vm.Program.of_segments [ Vm.Program.make_segment ~base:0x1000 [||] ]
  in
  let cfg = Cfg.build prog in
  check_int "no blocks" 0 (Array.length (Cfg.blocks cfg));
  check_bool "no sink" true (Cfg.unknown cfg = None)

let test_cfg_single_block_loop () =
  let prog = Vm.Program.of_instrs ~base:0x1000 [| Jmp (Addr 0x1000) |] in
  let cfg = Cfg.build prog in
  let bs = Cfg.blocks cfg in
  check_int "one block" 1 (Array.length bs);
  check_bool "self loop" true (Cfg.succs bs.(0) = [ bs.(0).Cfg.b_id ]);
  check_bool "self pred" true (Cfg.preds bs.(0) = [ bs.(0).Cfg.b_id ])

let test_cfg_indirect_call_no_targets () =
  let prog = Vm.Program.of_instrs ~base:0x1000 [| CallInd R0; Halt |] in
  let cfg = Cfg.build prog in
  match Cfg.unknown cfg with
  | None -> Alcotest.fail "expected an unknown-target sink"
  | Some sink ->
    let b0 =
      match Cfg.block_at cfg 0x1000 with
      | Some b -> b
      | None -> Alcotest.fail "no block at 0x1000"
    in
    check_bool "edge into the sink" true (List.mem sink (Cfg.succs b0));
    check_bool "sink kind is Unknown" true
      (List.exists
         (fun (id, k) -> id = sink && k = Cfg.Unknown)
         b0.Cfg.b_succs)

let test_cfg_fallthrough_into_segment_end () =
  (* The last instruction just falls off the end of the segment: no
     successor edge (the CPU faults on the fetch), and the block must
     still be recovered. *)
  let prog =
    Vm.Program.of_instrs ~base:0x1000
      [| Mov (R0, Imm 1); Bin (Add, R0, Imm 2) |]
  in
  let cfg = Cfg.build prog in
  let bs = Cfg.blocks cfg in
  check_int "one block" 1 (Array.length bs);
  check_int "both instructions" 2 (Array.length bs.(0).Cfg.b_instrs);
  check_bool "no successors" true (Cfg.succs bs.(0) = [])

let golden_dot =
  "digraph golden {\n\
  \  node [shape=box, fontname=\"monospace\"];\n\
  \  b0 [label=\"0x001000  mov r0, 0x0\\l\"];\n\
  \  b1 [label=\"0x001004  cmp r0, 0x3\\l0x001008  jge 0x1014\\l\"];\n\
  \  b2 [label=\"0x00100c  add r0, 0x1\\l0x001010  jmp 0x1004\\l\"];\n\
  \  b3 [label=\"0x001014  halt\\l\"];\n\
  \  b0 -> b1 [label=\"fallthrough\"];\n\
  \  b1 -> b3 [label=\"branch\", style=dashed];\n\
  \  b1 -> b2 [label=\"fallthrough\"];\n\
  \  b2 -> b1 [label=\"jump\"];\n\
   }\n"

let test_cfg_dot_golden () =
  let prog =
    Vm.Program.of_instrs ~base:0x1000
      [|
        Mov (R0, Imm 0);
        Cmp (R0, Imm 3);
        Jcc (Ge, Addr 0x1014);
        Bin (Add, R0, Imm 1);
        Jmp (Addr 0x1004);
        Halt;
      |]
  in
  check_str "DOT output" golden_dot
    (Cfg.to_dot ~name:"golden" (Cfg.build prog))

(* ------------------------------------------------------------------ *)
(* Stack-depth bound                                                   *)
(* ------------------------------------------------------------------ *)

let test_max_stack_depth_balanced_call () =
  (* main pushes one word and calls a leaf that pushes another; calls are
     treated as stack-balanced (the return slot [Call] pushes is popped
     by the matching [Ret]), so the bound is the two explicit pushes —
     the callee frame counted through the call edge, the return slot
     not. *)
  let prog =
    Vm.Program.of_instrs ~base:0
      [|
        Push (Imm 1);
        (* 0x0: depth 4 *)
        Call (Addr 0x10);
        (* 0x4 *)
        Pop R0;
        (* 0x8 *)
        Halt;
        (* 0xc *)
        Push (Imm 2);
        (* 0x10: leaf, +4 through the call edge *)
        Pop R1;
        (* 0x14 *)
        Ret;
        (* 0x18 *)
      |]
  in
  let cfg = Cfg.build prog in
  check_int "stack bound" 8 (Df.max_stack_depth cfg)

(* ------------------------------------------------------------------ *)
(* Random MiniC soundness                                              *)
(* ------------------------------------------------------------------ *)

(* Same program-recipe shape as the taint differential suite: one fixed
   skeleton whose knobs span clean runs, stack smashes, and exec-sink
   hijacks, so every generated source compiles. *)
type recipe = {
  cap : int;
  reps : int;
  stride : int;
  addk : int;
  use_words : bool;
  vuln : int; (* 0 = clean, 1 = stack smash, 2 = exec sink *)
  over : int;
  msg_len : int;
  msg_seed : int;
}

let source_of r =
  let words =
    if r.use_words then
      "int *p = (int*)buf; acc = acc + p[0] + p[1] + p[2];"
    else ""
  in
  let sink =
    match r.vuln with
    | 1 -> Printf.sprintf "vuln(buf, n + %d);" r.over
    | 2 -> Printf.sprintf "dst[%d] = 0; system(dst);" (r.cap - 1)
    | _ -> ""
  in
  Printf.sprintf
    {|
    char buf[%d];
    char dst[%d];
    int sink;
    void vuln(char *s, int n) {
      char local[16];
      int i = 0;
      while (s[i] != 0 && i < n) { local[i] = s[i]; i = i + 1; }
    }
    int main() {
      int n = _recv(buf, %d);
      int acc = 0;
      int r = 0;
      while (r < %d) {
        int i = 0;
        while (i + %d < %d) {
          acc = acc + buf[i];
          dst[i] = (char)(buf[i + %d] + %d);
          i = i + 1;
        }
        r = r + 1;
      }
      %s
      sink = acc;
      %s
      return 0;
    }
  |}
    r.cap r.cap r.cap r.reps r.stride r.cap r.stride r.addk words sink

let message_of r =
  String.init r.msg_len (fun i ->
      Char.chr (1 + (((r.msg_seed * 31) + (i * 7)) land 0x7F)))

let gen_recipe =
  QCheck.Gen.(
    oneofl [ 16; 64; 128 ] >>= fun cap ->
    int_range 1 4 >>= fun reps ->
    int_range 0 4 >>= fun stride ->
    int_range 0 60 >>= fun addk ->
    bool >>= fun use_words ->
    int_range 0 2 >>= fun vuln ->
    int_range 0 40 >>= fun over ->
    int_range 1 cap >>= fun msg_len ->
    int_range 0 9999 >>= fun msg_seed ->
    return
      { cap; reps; stride; addk; use_words; vuln; over; msg_len; msg_seed })

let print_recipe r =
  Printf.sprintf
    "cap=%d reps=%d stride=%d addk=%d words=%b vuln=%d over=%d len=%d seed=%d"
    r.cap r.reps r.stride r.addk r.use_words r.vuln r.over r.msg_len
    r.msg_seed

let load_and_poke app msg =
  let proc = Osim.Process.load ~aslr:true ~seed:17 app in
  ignore (Osim.Process.run proc);
  ignore (Osim.Process.send_message proc msg);
  proc

(* Every pc the dynamic engine marks on the program's replay must lie in
   [S]. The hijack recipes fault at the smashed [Ret] or reach [exec]
   through the CFG, so every run here follows it. *)
let soundness_qcheck =
  QCheck.Test.make ~name:"dynamic taint within static S" ~count:25
    (QCheck.make ~print:print_recipe gen_recipe)
    (fun r ->
      let app = Minic.Driver.compile_app ~name:"stprog" (source_of r) in
      let proc = load_and_poke app (message_of r) in
      let sa = St.analyze proc.Osim.Process.cpu.Vm.Cpu.code in
      let base = Sweeper.Taint.run proc in
      List.for_all (St.may_propagate sa) base.Sweeper.Taint.t_prop_pcs)

(* S must also contain the propagation pcs of real exploit replays. *)
let test_registry_soundness key () =
  let entry = Apps.Registry.find key in
  let prime () =
    let proc = Osim.Process.load ~aslr:true ~seed:13 (entry.r_compile ()) in
    ignore (Osim.Process.run proc);
    let exploit =
      Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 key
    in
    List.iter
      (fun m -> ignore (Osim.Process.send_message proc m))
      exploit.Apps.Exploits.x_messages;
    proc
  in
  let proc = prime () in
  let sa = St.analyze proc.Osim.Process.cpu.Vm.Cpu.code in
  let base = Sweeper.Taint.run proc in
  check_bool "dynamic props inside S" true
    (List.for_all (St.may_propagate sa) base.Sweeper.Taint.t_prop_pcs)

(* ------------------------------------------------------------------ *)
(* Interval abstract interpretation                                    *)
(* ------------------------------------------------------------------ *)

module Ab = Static_an.Absint

(* Degenerate segments: the fixpoint analyses must cope with an empty
   block list, a one-instruction segment, and a segment whose only
   control flow goes through the unknown-target sink. *)
let degenerate_layout = Vm.Layout.create ~aslr:false ()

let test_degenerate_empty_segment () =
  let prog =
    Vm.Program.of_segments [ Vm.Program.make_segment ~base:0x1000 [||] ]
  in
  let sa = St.analyze prog in
  check_int "staint: nothing propagates" 0 (St.prop_count sa);
  let ai = Ab.analyze ~layout:degenerate_layout prog in
  check_int "absint: no instructions" 0 (Ab.instructions ai);
  check_int "absint: no accesses" 0 (Ab.accesses ai);
  check_bool "absint: pct defined on empty" true (Ab.proven_pct ai = 0.)

let test_degenerate_single_instruction () =
  let prog = Vm.Program.of_instrs ~base:0x1000 [| Halt |] in
  let cfg = Cfg.build prog in
  check_int "one block" 1 (Array.length (Cfg.blocks cfg));
  let sa = St.analyze prog in
  check_int "staint: nothing propagates" 0 (St.prop_count sa);
  let ai = Ab.analyze ~layout:degenerate_layout prog in
  check_int "absint: one instruction" 1 (Ab.instructions ai);
  check_int "absint: no accesses" 0 (Ab.accesses ai);
  check_bool "absint: not an access pc" true (Ab.classify ai 0x1000 = None)

let test_degenerate_unknown_sink_only () =
  (* The segment's only control transfer resolves to nothing: the store
     behind the indirect call is reachable only through the sink, so no
     access may be proven and nothing crashes. *)
  let prog =
    Vm.Program.of_instrs ~base:0x1000 [| CallInd R0; Store (R1, 0, R2); Halt |]
  in
  let sa = St.analyze prog in
  check_bool "staint: analysis completes" true (St.total sa > 0);
  let ai = Ab.analyze ~layout:degenerate_layout prog in
  check_int "absint: one access" 1 (Ab.accesses ai);
  check_int "absint: nothing proven through the sink" 0 (Ab.proven ai);
  check_bool "absint: no elidable range" true (Ab.safe_range ai 0x1004 = None)

(* The soundness contract, tested end to end: on clean runs (the only
   ones that follow the CFG) every dynamically observed register value
   must lie inside the static interval at its pc, and every effective
   address of a proven access must lie inside its proven range. A global
   pre-hook forces the instrumented path, whose pre-commit state is
   exactly the in-state the analysis speaks about. *)
let containment_qcheck =
  QCheck.Test.make
    ~name:"dynamic registers and addresses within static intervals"
    ~count:15
    (QCheck.make ~print:print_recipe gen_recipe)
    (fun r ->
      let r = { r with vuln = 0 } in
      let app = Minic.Driver.compile_app ~name:"aiprog" (source_of r) in
      let proc = Osim.Process.load ~aslr:true ~seed:17 app in
      let ai = proc.Osim.Process.absint in
      let cpu = proc.Osim.Process.cpu in
      let ok = ref true in
      let nregs = Array.length cpu.Vm.Cpu.regs in
      let witness (e : Vm.Event.effect_) =
        let pc = e.Vm.Event.e_pc in
        for reg = 0 to nregs - 1 do
          match Ab.interval_at ai ~pc ~reg with
          | Some iv ->
            let v = cpu.Vm.Cpu.regs.(reg) in
            if not (iv.Ab.lo <= v && v <= iv.Ab.hi) then ok := false
          | None -> ok := false (* dynamically reached, statically dead *)
        done;
        match Ab.classify ai pc with
        | Some (Ab.Proven (lo, hi)) ->
          List.iter
            (fun (a : Vm.Event.access) ->
              if not (lo <= a.Vm.Event.a_addr && a.Vm.Event.a_addr < hi) then
                ok := false)
            (e.Vm.Event.e_mem_reads @ e.Vm.Event.e_mem_writes)
        | _ -> ()
      in
      let id = Vm.Cpu.add_pre_hook cpu witness in
      ignore (Osim.Process.run proc);
      ignore (Osim.Process.send_message proc (message_of r));
      Vm.Cpu.remove_hook cpu id;
      !ok)

(* Elision must be invisible on every recipe — including the smashing and
   hijacking ones, where only the tripwire keeps the facts honest. The
   default load elides proven accesses; the control run reinstalls the
   block tier with no [safe_of], i.e. every guard in place. *)
let elision_differential_qcheck =
  QCheck.Test.make
    ~name:"bounds-check elision invisible across clean and hijack runs"
    ~count:15
    (QCheck.make ~print:print_recipe gen_recipe)
    (fun r ->
      let app = Minic.Driver.compile_app ~name:"elprog" (source_of r) in
      let msg = message_of r in
      let run_one ~elide =
        let proc = Osim.Process.load ~aslr:true ~seed:17 app in
        let cpu = proc.Osim.Process.cpu in
        if not elide then
          Vm.Block_compile.install cpu
            (Cfg.block_bounds (Cfg.build cpu.Vm.Cpu.code));
        ignore (Osim.Process.run proc);
        ignore (Osim.Process.send_message proc msg);
        ( proc.Osim.Process.compromised,
          Osim.Process.committed_outputs proc,
          cpu.Vm.Cpu.icount )
      in
      run_one ~elide:true = run_one ~elide:false)

(* The elision tripwire, deterministically: a store proven safe for
   CFG-following runs is installed with a deliberately wrong proven
   range — the state a hijack could smuggle past a CFG-only fact. The
   residual check must trip exactly once, demote the block, and let the
   fully guarded tier commit the store, leaving behavior byte-identical
   to a run with no elision at all. *)
let elision_app () =
  let items =
    [
      Vm.Asm.Label "main";
      Vm.Asm.Ins (Bin (Sub, SP, Imm 16));
      Vm.Asm.Ins (Mov (R1, Imm 0xAB));
      Vm.Asm.Label "thestore";
      Vm.Asm.Ins (Store (SP, 0, R1));
      Vm.Asm.Ins (Load (R2, SP, 0));
      Vm.Asm.Ins (Bin (Add, SP, Imm 16));
      Vm.Asm.Ins Ret;
    ]
  in
  {
    Minic.Codegen.unit_ = Vm.Asm.make_unit "elision" items;
    data = [];
    funcs = [ "main" ];
  }

let test_elision_tripwire () =
  let app = elision_app () in
  let proc = Osim.Process.load ~aslr:false ~seed:5 app in
  let cpu = proc.Osim.Process.cpu in
  let ai = proc.Osim.Process.absint in
  let store_pc = Vm.Asm.symbol proc.Osim.Process.app_image "thestore" in
  check_bool "the store is proven safe" true
    (Ab.safe_range ai store_pc <> None);
  Vm.Block_compile.install
    ~safe_of:(fun pc ->
      if pc = store_pc then Some (0x10, 0x20) else Ab.safe_range ai pc)
    cpu
    (Cfg.block_bounds (Cfg.build cpu.Vm.Cpu.code));
  ignore (Osim.Process.run proc);
  check_int "exactly one trip" 1 cpu.Vm.Cpu.elision_trips;
  check_bool "halted normally" true cpu.Vm.Cpu.halted;
  check_int "store committed via the guarded tier" 0xAB
    (Vm.Cpu.get_reg cpu Vm.Isa.R2);
  let proc2 = Osim.Process.load ~aslr:false ~seed:5 app in
  let cpu2 = proc2.Osim.Process.cpu in
  Vm.Block_compile.install cpu2 (Cfg.block_bounds (Cfg.build cpu2.Vm.Cpu.code));
  ignore (Osim.Process.run proc2);
  check_int "same icount as the unelided run" cpu2.Vm.Cpu.icount
    cpu.Vm.Cpu.icount;
  check_int "no trips without elision" 0 cpu2.Vm.Cpu.elision_trips

(* ------------------------------------------------------------------ *)
(* The scope of S: CFG-following executions                           *)
(* ------------------------------------------------------------------ *)

(* A hand-built program whose only interesting control transfer is a
   [Ret] through a forged return address into plain straight-line code:

     main:    sub sp, 64            ; stack buffer
              recv(sp, 64)          ; taints the buffer
              ldb r2, [sp+0]        ; r2 := tainted byte
              mov r3, $landing
              push r3
              ret                   ; lands at landing — NOT a return site
     landing: mov r4, r2            ; propagates taint — statically
              add sp, 64            ;   unreachable, so outside S
              ret                   ; back to _start

   Statically, taint never reaches [landing] (a [Ret] only flows to
   return sites), so [landing] is outside [S]; dynamically, the r2→r4
   move propagates taint there. [S] bounds what the dynamic engine marks
   only on executions that follow the CFG, and this hijack does not. *)
let hijack_app () =
  let items =
    [
      Vm.Asm.Label "main";
      Vm.Asm.Ins (Bin (Sub, SP, Imm 64));
      Vm.Asm.Ins (Mov (R0, Reg SP));
      Vm.Asm.Ins (Mov (R1, Imm 64));
      Vm.Asm.Ins (Syscall Vm.Sysno.sys_recv);
      Vm.Asm.Ins (Loadb (R2, SP, 0));
      Vm.Asm.Ins (Mov (R3, Sym "landing"));
      Vm.Asm.Ins (Push (Reg R3));
      Vm.Asm.Ins Ret;
      Vm.Asm.Label "landing";
      Vm.Asm.Ins (Mov (R4, Reg R2));
      Vm.Asm.Ins (Bin (Add, SP, Imm 64));
      Vm.Asm.Ins Ret;
    ]
  in
  {
    Minic.Codegen.unit_ = Vm.Asm.make_unit "hijack" items;
    data = [];
    funcs = [ "main" ];
  }

let test_hijack_outside_s () =
  let proc = load_and_poke (hijack_app ()) "ABCD" in
  let landing = Vm.Asm.symbol proc.Osim.Process.app_image "landing" in
  let sa = St.analyze proc.Osim.Process.cpu.Vm.Cpu.code in
  let base = Sweeper.Taint.run proc in
  check_bool "landing outside S" false (St.may_propagate sa landing);
  check_bool "landing propagated dynamically" true
    (List.mem landing base.Sweeper.Taint.t_prop_pcs)

(* ------------------------------------------------------------------ *)
(* Antibody validation                                                 *)
(* ------------------------------------------------------------------ *)

let crash_server ?(benign = 10) ?(seed = 42) key =
  let entry = Apps.Registry.find key in
  let proc = Osim.Process.load ~aslr:true ~seed (entry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  List.iter
    (fun m -> ignore (Osim.Server.handle server m))
    (Apps.Registry.workload key benign);
  let exploit = Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 key in
  let fault = ref None in
  List.iter
    (fun m ->
      match Osim.Server.handle server m with
      | `Crashed (_, f) -> fault := Some f
      | _ -> ())
    exploit.Apps.Exploits.x_messages;
  match !fault with
  | Some f -> (proc, server, f)
  | None -> Alcotest.fail (key ^ ": exploit did not crash")

(* Static vs dynamic on the one interval domain, for every registry app:
   each overflow-class store the membug detector reports (stack smash,
   heap overflow) must be a statically feasible unsafe write, and the
   honest bundle must clear both static bars — the interval bar on its
   overflow checks and S on its taint filters. *)
let test_antibody_validates_statically () =
  List.iter
    (fun (e : Apps.Registry.entry) ->
      let key = e.r_key in
      let proc, server, fault = crash_server key in
      let r = O.handle_attack ~app:key server fault in
      let ai = proc.Osim.Process.absint in
      let sa = St.analyze proc.Osim.Process.cpu.Vm.Cpu.code in
      List.iter
        (function
          | Sweeper.Membug.Stack_smash { store_pc; _ }
          | Sweeper.Membug.Heap_overflow { store_pc; _ } ->
            check_bool
              (Printf.sprintf "%s: overflow store 0x%x statically feasible"
                 key store_pc)
              true
              (Ab.feasible_unsafe_write ai store_pc)
          | Sweeper.Membug.Double_free _ | Sweeper.Membug.Dangling_write _ ->
            ())
        r.O.a_membug.Sweeper.Membug.m_findings;
      check_bool (key ^ ": overflow checks clear the interval bar") true
        (Sweeper.Antibody.validate_feasible proc ai r.O.a_antibody = []);
      check_bool (key ^ ": taint-filter pcs all inside S") true
        (Sweeper.Antibody.validate_static proc sa r.O.a_antibody = []))
    Apps.Registry.all

(* The interval bar on antibody verification: a legitimately analyzed
   bundle's overflow checks sit at statically feasible unsafe writes and
   pass; a fabricated Store_guard at a proven-safe store — a pc no
   honest analysis can emit — is rejected. *)
let test_validate_feasible_accept_reject () =
  let proc, server, fault = crash_server "apache1" in
  let r = O.handle_attack ~app:"apache1" server fault in
  let ai = proc.Osim.Process.absint in
  check_bool "legitimate bundle clears the interval bar" true
    (Sweeper.Antibody.validate_feasible proc ai r.O.a_antibody = []);
  let safe_pc = ref None in
  Static_an.Absint.iter_accesses ai (fun pc cls ->
      match (cls, !safe_pc) with
      | Static_an.Absint.Proven _, None -> safe_pc := Some pc
      | _ -> ());
  let safe_pc =
    match !safe_pc with
    | Some pc -> pc
    | None -> Alcotest.fail "no proven-safe access in apache1"
  in
  let fake =
    {
      r.O.a_antibody with
      Sweeper.Antibody.ab_vsefs =
        [
          {
            Sweeper.Vsef.v_name = "fabricated-store-guard";
            v_app = "apache1";
            v_check =
              Sweeper.Vsef.Store_guard
                { store = Sweeper.Vsef.loc_of_pc proc safe_pc };
            v_origin = Sweeper.Vsef.From_membug;
          };
        ];
    }
  in
  (match Sweeper.Antibody.validate_feasible proc ai fake with
  | [ (name, _) ] -> check_str "names the fabricated vsef"
                       "fabricated-store-guard" name
  | _ -> Alcotest.fail "expected exactly one feasibility violation")

(* ------------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) in
  Alcotest.run "static-an"
    [
      ( "cfg",
        [
          Alcotest.test_case "empty segment" `Quick test_cfg_empty_segment;
          Alcotest.test_case "single-block loop" `Quick
            test_cfg_single_block_loop;
          Alcotest.test_case "indirect call with no static targets" `Quick
            test_cfg_indirect_call_no_targets;
          Alcotest.test_case "fallthrough into segment end" `Quick
            test_cfg_fallthrough_into_segment_end;
          Alcotest.test_case "DOT golden" `Quick test_cfg_dot_golden;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "stack depth of a balanced call" `Quick
            test_max_stack_depth_balanced_call;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "empty segment" `Quick
            test_degenerate_empty_segment;
          Alcotest.test_case "single-instruction segment" `Quick
            test_degenerate_single_instruction;
          Alcotest.test_case "unknown-sink-only segment" `Quick
            test_degenerate_unknown_sink_only;
        ] );
      ( "absint",
        [
          qt containment_qcheck;
          qt elision_differential_qcheck;
          Alcotest.test_case "elision tripwire demotes the block" `Quick
            test_elision_tripwire;
        ] );
      ( "soundness",
        [
          qt soundness_qcheck;
          Alcotest.test_case "apache1 exploit replay" `Quick
            (test_registry_soundness "apache1");
          Alcotest.test_case "squid exploit replay" `Quick
            (test_registry_soundness "squid");
          Alcotest.test_case "hijacked return lands outside S" `Quick
            test_hijack_outside_s;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "antibody validates against S" `Quick
            test_antibody_validates_statically;
          Alcotest.test_case "interval bar accepts real, rejects fabricated"
            `Quick test_validate_feasible_accept_reject;
        ] );
    ]
