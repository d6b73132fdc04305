(* Differential testing of the memory-bug detector's two paths.

   [Sweeper.Membug.run] checks stores, pushes, calls and returns from a
   private fused loop over [Vm.Cpu.exec_fast] whenever it is the only
   instrumentation on the CPU; with any foreign global hook attached it
   checks the generic instrumented path's effect records instead. The two
   must agree on everything the report carries — the findings in order,
   the replayed fault, the instruction count — and on the replay's
   outcome, for random MiniC programs (clean runs, stack smashes, exec
   hijacks, heap misuse), directed cases, and the four registry exploits
   replayed from their rollback checkpoints. The fused replay must also
   keep the CPU's three-tier retirement audit exact.

   Beside the differential: the chunk lookups at scale (a thousand live
   chunks), equal fault counts from the fused and hooked replays of every
   analysis, and hook hygiene when a foreign hook raises mid-replay. *)

open Diff_recipes
module M = Sweeper.Membug

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let describe = Printf.sprintf "0x%x"

(* Everything observable about one detector replay: the report, plus the
   outcome — where the CPU stopped and whether it halted. *)
type observed = {
  o_findings : string list;
  o_fault : Vm.Event.fault option;
  o_instructions : int;
  o_stop : int * bool;
}

let observe_run (proc : Osim.Process.t) =
  let r = M.run proc in
  let cpu = proc.Osim.Process.cpu in
  ( r,
    {
      o_findings = List.map (M.finding_to_string ~describe) r.M.m_findings;
      o_fault = r.M.m_fault;
      o_instructions = r.M.m_instructions;
      o_stop = (cpu.Vm.Cpu.pc, cpu.Vm.Cpu.halted);
    } )

(* The fused report (with the raw findings) and whether the paths agree. *)
let paths_agree replay =
  let r, a = replay.go (audited observe_run) in
  let _, b = replay.go (hooked observe_run) in
  (r, a = b)

(* ------------------------------------------------------------------ *)
(* Random and directed MiniC programs                                  *)
(* ------------------------------------------------------------------ *)

let minic_replay r =
  let app = Minic.Driver.compile_app ~name:"mdiff" (source_of r) in
  let msg = message_of r in
  { go = (fun f -> f (load_and_poke app msg)) }

let diff_qcheck =
  QCheck.Test.make ~name:"fused detector == hooked detector (random programs)"
    ~count:40 arb_recipe
    (fun r -> snd (paths_agree (minic_replay r)))

let is_smash = function M.Stack_smash _ -> true | _ -> false
let is_overflow = function M.Heap_overflow _ -> true | _ -> false
let is_dangling = function M.Dangling_write _ -> true | _ -> false
let is_double_free = function M.Double_free _ -> true | _ -> false

(* The paths agree, and the findings are exactly one of the expected
   kind ([None]: no findings at all). *)
let directed_on replay expect () =
  let r, agree = paths_agree replay in
  check_bool "paths agree" true agree;
  check_bool "instructions counted" true (r.M.m_instructions > 0);
  match (expect, r.M.m_findings) with
  | None, [] -> ()
  | Some (name, kind), [ f ] ->
    check_bool (name ^ ": " ^ M.finding_to_string ~describe f) true (kind f)
  | _, fs ->
    Alcotest.failf "unexpected findings: [%s]"
      (String.concat "; " (List.map (M.finding_to_string ~describe) fs))

let directed r expect = directed_on (minic_replay r) expect

(* A hand-assembled thunk that reads its own return address and pushes it
   back before returning — a [Push] onto a live return-address slot,
   which the detector reports as a smash (no compiled MiniC pushes there
   short of pivoting the stack). *)
let thunk_replay =
  let open Vm.Isa in
  let ins i = Vm.Asm.Ins i in
  let app =
    {
      Minic.Codegen.unit_ =
        Vm.Asm.make_unit "thunk"
          [
            Vm.Asm.Label "main";
            ins (Push (Reg FP));
            ins (Mov (FP, Reg SP));
            ins (Call (Lbl "thunk"));
            ins (Mov (R0, Imm 0));
            ins (Mov (SP, Reg FP));
            ins (Pop FP);
            ins Ret;
            Vm.Asm.Label "thunk";
            ins (Pop R1);
            ins (Push (Reg R1));
            ins Ret;
          ];
      data = [];
      funcs = [ "main" ];
    }
  in
  { go = (fun f -> f (Osim.Process.load ~aslr:true ~seed:17 app)) }

(* ------------------------------------------------------------------ *)
(* A thousand live chunks                                              *)
(* ------------------------------------------------------------------ *)

(* 1400 chunks, the first 300 freed, so 1100 stay live: a store 16 bytes
   into live chunk 700 (the next chunk's header) overflows it, and a store
   into freed chunk 100 writes after free. Every heap store is looked up
   among all of them, so the lookups must be exact at scale, not just
   fast. *)
let many_chunks_src =
  {|
  int tab[1400];
  int main() {
    int i = 0;
    while (i < 1400) { tab[i] = (int)malloc(16); i = i + 1; }
    i = 0;
    while (i < 300) { free((char*)tab[i]); i = i + 1; }
    char *v = (char*)tab[700];
    i = 0;
    while (i < 20) { v[i] = 65; i = i + 1; }
    char *d = (char*)tab[100];
    d[4] = 66;
    return 0;
  }
  |}

let many_chunks () =
  let app = Minic.Driver.compile_app ~name:"chunks" many_chunks_src in
  let proc = Osim.Process.load ~aslr:true ~seed:17 app in
  let r, agree =
    paths_agree { go = (fun f -> f (Osim.Process.load ~aslr:true ~seed:17 app)) }
  in
  check_bool "paths agree" true agree;
  ignore (Vm.Cpu.run proc.Osim.Process.cpu : Vm.Cpu.outcome);
  let chunks = Vm.Alloc.chunks proc.Osim.Process.mem proc.Osim.Process.layout in
  let chunk_where p =
    List.exists (fun (c : Vm.Alloc.chunk) -> p c) chunks
  in
  match r.M.m_findings with
  | [ M.Heap_overflow { addr = o; _ }; M.Dangling_write { addr = d; _ } ] ->
    check_bool "overflow lands just past a live chunk" true
      (chunk_where (fun c ->
           c.Vm.Alloc.c_state = Vm.Alloc.Chunk_alloc && c.c_ptr + c.c_size = o));
    check_bool "dangling write lands in a freed chunk" true
      (chunk_where (fun c ->
           c.Vm.Alloc.c_state = Vm.Alloc.Chunk_freed && c.c_ptr + 4 = d))
  | fs ->
    Alcotest.failf "unexpected findings: [%s]"
      (String.concat "; " (List.map (M.finding_to_string ~describe) fs))

(* ------------------------------------------------------------------ *)
(* Registry exploits                                                   *)
(* ------------------------------------------------------------------ *)

let exploit_agrees key () =
  let cx = crashed_ctx key in
  let r, agree = paths_agree (exploit_replay cx) in
  check_bool "paths agree" true agree;
  check_bool "the replayed crash recurred" true (r.M.m_fault <> None)

(* Taint, slicing and the detector each count the replayed crash on the
   CPU exactly as the hooked interpreter does. *)
let faults_counted key () =
  let cx = crashed_ctx key in
  let replay = exploit_replay cx in
  let fault_delta wrap f =
    replay.go
      (wrap (fun (p : Osim.Process.t) ->
           let c0 = p.Osim.Process.cpu.Vm.Cpu.fault_count in
           ignore (f p);
           p.Osim.Process.cpu.Vm.Cpu.fault_count - c0))
  in
  List.iter
    (fun (name, f) ->
      let fused = fault_delta audited f and slow = fault_delta hooked f in
      check_int (name ^ ": fused counts the fault as hooked does") slow fused;
      check_int (name ^ ": one fault") 1 fused)
    [
      ("taint", fun p -> ignore (Sweeper.Taint.run p));
      ("slicing", fun p -> ignore (Sweeper.Slice.run p));
      ("membug", fun p -> ignore (M.run p));
    ]

(* ------------------------------------------------------------------ *)
(* Hook hygiene                                                        *)
(* ------------------------------------------------------------------ *)

(* A foreign VSEF-style pre-hook that raises a detection mid-replay: the
   exception must reach the caller, and the analysis must leave the hook
   tables exactly as it found them. *)
let raising_hook_detaches () =
  let app = Minic.Driver.compile_app ~name:"hooks" (source_of clean_recipe) in
  let msg = message_of clean_recipe in
  List.iter
    (fun (name, analysis) ->
      let proc = load_and_poke app msg in
      let cpu = proc.Osim.Process.cpu in
      let seen = ref 0 in
      let foreign =
        Vm.Cpu.add_pre_hook cpu (fun eff ->
            incr seen;
            if !seen = 500 then
              Sweeper.Detection.detect (Sweeper.Detection.Vsef_trip "test")
                ~pc:eff.Vm.Event.e_pc ~detail:"raised mid-replay")
      in
      let globals = Vm.Cpu.global_hook_count cpu
      and per_pc = Vm.Cpu.pc_hook_count cpu in
      let raised =
        try
          analysis proc;
          false
        with Sweeper.Detection.Detected _ -> true
      in
      check_bool (name ^ ": the detection propagates") true raised;
      check_int (name ^ ": global hooks restored") globals
        (Vm.Cpu.global_hook_count cpu);
      check_int (name ^ ": per-pc hooks restored") per_pc
        (Vm.Cpu.pc_hook_count cpu);
      Vm.Cpu.remove_hook cpu foreign)
    [
      ("membug", fun p -> ignore (M.run p));
      ("taint", fun p -> ignore (Sweeper.Taint.run p));
      ("taint oracle", fun p -> ignore (Sweeper.Taint.Oracle.run p));
      ("slicing", fun p -> ignore (Sweeper.Slice.run p));
    ]

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) in
  let apps = [ "apache1"; "apache2"; "cvs"; "squid" ] in
  Alcotest.run "membug-diff"
    [
      ("fused-vs-hooked", [ qt diff_qcheck ]);
      ( "recipes",
        [
          Alcotest.test_case "clean run finds nothing on both paths" `Quick
            (directed clean_recipe None);
          Alcotest.test_case "stack smash detected identically" `Quick
            (directed smash_recipe (Some ("smash", is_smash)));
          Alcotest.test_case "heap overflow detected identically" `Quick
            (directed heap_overflow_recipe (Some ("overflow", is_overflow)));
          Alcotest.test_case "write after free detected identically" `Quick
            (directed dangling_recipe (Some ("dangling", is_dangling)));
          Alcotest.test_case "double free detected identically" `Quick
            (directed double_free_recipe (Some ("double free", is_double_free)));
          Alcotest.test_case "byte store into a ret slot's top byte" `Quick
            (directed ret_byte_recipe (Some ("smash", is_smash)));
          Alcotest.test_case "push onto a live ret slot" `Quick
            (directed_on thunk_replay (Some ("smash", is_smash)));
        ] );
      ("chunks", [ Alcotest.test_case "a thousand live chunks" `Quick many_chunks ]);
      ( "exploits",
        List.map
          (fun key ->
            Alcotest.test_case (key ^ " replay detects identically") `Quick
              (exploit_agrees key))
          apps
        @ List.map
            (fun key ->
              Alcotest.test_case (key ^ " replays count the fault") `Quick
                (faults_counted key))
            apps );
      ( "hooks",
        [
          Alcotest.test_case "a raising foreign hook leaves no analysis attached"
            `Quick raising_hook_detaches;
        ] );
    ]
