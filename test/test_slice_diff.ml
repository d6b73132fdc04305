(* Differential testing of the slicer's two recording paths.

   [Sweeper.Slice.run] records its dependence graph from a private fused
   loop over [Vm.Cpu.exec_fast] whenever it is the only instrumentation on
   the CPU; with any foreign global hook attached it records from the
   generic instrumented path's effect records instead. The two must build
   the same graph: same backward slice (every summary field), same
   instruction count, same forward slices from every input message — on
   random MiniC programs (clean runs, stack smashes, exec hijacks) and on
   the four registry exploits replayed from their rollback checkpoints.

   The fused replay must also keep the CPU's three-tier retirement audit
   exact: block + fast + slow retirements add up to the instructions it
   executed. *)

open Diff_recipes
module S = Sweeper.Slice

let check_bool = Alcotest.(check bool)

(* Everything observable about one replay, in comparable form. *)
type observed = {
  o_outcome : Vm.Cpu.outcome;
  o_summary : int * int * int list * int list * int;
  o_instructions : int;
  o_forward : (int * int * int list) list;  (* msg id, size, pcs *)
}

let flat_summary (s : S.summary) =
  ( s.S.s_nodes,
    s.S.s_slice_size,
    S.Int_set.elements s.S.s_pcs,
    S.Int_set.elements s.S.s_msgs,
    s.S.s_fault_pc )

(* Each path replays twice: once through [run], once through
   [run_session]. *)
let observe ~fused ~msgs replay =
  let wrap f = if fused then audited f else hooked f in
  let r = replay.go (wrap (fun p -> S.run p)) in
  let sess = replay.go (wrap (fun p -> S.run_session p)) in
  let msgs =
    List.sort_uniq compare (msgs @ S.Int_set.elements sess.S.backward.S.s_msgs)
  in
  check_bool "run is run_session's backward slice" true
    (flat_summary r.S.sl_summary = flat_summary sess.S.backward);
  {
    o_outcome = sess.S.outcome;
    o_summary = flat_summary r.S.sl_summary;
    o_instructions = r.S.sl_instructions;
    o_forward =
      List.map
        (fun m ->
          let fw = S.forward_from_message sess ~msg_id:m in
          (m, fw.S.fw_size, S.Int_set.elements fw.S.fw_pcs))
        msgs;
  }

let paths_agree ~msgs replay =
  let a = observe ~fused:true ~msgs replay in
  let b = observe ~fused:false ~msgs replay in
  (a, a = b)

(* ------------------------------------------------------------------ *)
(* Random MiniC programs                                               *)
(* ------------------------------------------------------------------ *)

let minic_replay r =
  let app = Minic.Driver.compile_app ~name:"sdiff" (source_of r) in
  let msg = message_of r in
  { go = (fun f -> f (load_and_poke app msg)) }

let diff_qcheck =
  QCheck.Test.make ~name:"fused slicer == hooked slicer (random programs)"
    ~count:30 arb_recipe
    (fun r -> snd (paths_agree ~msgs:[ 0 ] (minic_replay r)))

let directed r () =
  let a, agree = paths_agree ~msgs:[ 0 ] (minic_replay r) in
  check_bool "paths agree" true agree;
  let _, size, _, _, _ = a.o_summary in
  check_bool "slice nonempty" true (size > 0);
  check_bool "instructions counted" true (a.o_instructions > 0)

(* ------------------------------------------------------------------ *)
(* Registry exploits                                                   *)
(* ------------------------------------------------------------------ *)

let exploit_agrees key () =
  let cx = crashed_ctx key in
  let a, agree =
    paths_agree ~msgs:cx.Sweeper.Stage.cx_suspects
      (exploit_replay cx)
  in
  check_bool "paths agree" true agree;
  (match a.o_outcome with
  | Vm.Cpu.Faulted _ -> ()
  | _ -> Alcotest.fail "expected the replayed crash");
  let _, _, _, msgs, _ = a.o_summary in
  check_bool "slice depends on an input message" true (msgs <> [])

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) in
  Alcotest.run "slice-diff"
    [
      ("fused-vs-hooked", [ qt diff_qcheck ]);
      ( "recipes",
        [
          Alcotest.test_case "clean run slices identically" `Quick
            (directed clean_recipe);
          Alcotest.test_case "stack smash slices identically" `Quick
            (directed smash_recipe);
          Alcotest.test_case "exec hijack slices identically" `Quick
            (directed exec_recipe);
        ] );
      ( "exploits",
        List.map
          (fun key ->
            Alcotest.test_case (key ^ " replay slices identically") `Quick
              (exploit_agrees key))
          [ "apache1"; "apache2"; "cvs"; "squid" ] );
    ]
