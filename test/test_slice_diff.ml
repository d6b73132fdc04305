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

(* The slices of the four exploit replays, pinned to the values an
   independent stack-based graph walk computes: per app, nodes, slice
   size, static pcs, the messages the fault depends on, and each suspect
   message's forward-slice size in suspect order. The two recording paths
   above share one sweep, so only a pin catches a sweep that changes the
   slice. *)
let pinned =
  let upto n = List.init (n + 1) Fun.id in
  [
    ( "apache1",
      ( (34_733, 32_595, 443, upto 10),
        [ 34_655; 33_312; 30_185; 27_100; 24_139; 21_674; 19_797; 16_836;
          15_493; 13_492; 10_407 ] ) );
    ( "apache2",
      ( (51_901, 49_419, 551, upto 10),
        [ 51_824; 48_052; 42_782; 37_805; 32_945; 27_714; 23_400; 18_770;
          14_085; 8_893; 4_185 ] ) );
    ( "cvs",
      ( (18_283, 17_127, 486, upto 11),
        [ 18_200; 16_134; 15_077; 13_613; 11_579; 10_522; 9_058; 7_594;
          5_730; 4_859; 3_165; 961 ] ) );
    ( "squid",
      ( (1_976_273, 1_815_557, 1_147, upto 10),
        [ 1_976_195; 1_974_145; 1_972_095; 1_957_706; 1_942_816; 1_940_766;
          1_938_716; 1_936_666; 1_920_838; 1_918_788; 1_916_738 ] ) );
  ]

(* The slicing stage's replay, sized from the window, against the pin. *)
let exploit_pinned key () =
  let (nodes, size, pcs, msgs), fws = List.assoc key pinned in
  let cx = crashed_ctx key in
  let sess =
    Sweeper.Stage.Replay.analyze cx
      (S.run_session ~window:cx.Sweeper.Stage.cx_window)
  in
  let b = sess.S.backward in
  let check_int = Alcotest.(check int) in
  check_int "nodes" nodes b.S.s_nodes;
  check_int "slice size" size b.S.s_slice_size;
  check_int "static pcs" pcs (S.Int_set.cardinal b.S.s_pcs);
  Alcotest.(check (list int)) "messages" msgs (S.Int_set.elements b.S.s_msgs);
  Alcotest.(check (list int))
    "forward sizes" fws
    (List.map
       (fun m -> (S.forward_from_message sess ~msg_id:m).S.fw_size)
       cx.Sweeper.Stage.cx_suspects)

(* The window the slicer sizes its graph from is the length of every
   analysis replay of it. *)
let window_is_replay key () =
  let cx = crashed_ctx key in
  let fuel = Sweeper.Stage.Replay.analysis_fuel in
  let check_int = Alcotest.(check int) in
  let w = cx.Sweeper.Stage.cx_window in
  check_int "membug" w
    (Sweeper.Stage.Replay.analyze cx (Sweeper.Membug.run ~fuel))
      .Sweeper.Membug.m_instructions;
  check_int "taint" w
    (Sweeper.Stage.Replay.analyze cx (Sweeper.Taint.run ~fuel))
      .Sweeper.Taint.t_instructions;
  check_int "slice" w
    (Sweeper.Stage.Replay.analyze cx (S.run ~fuel ~window:w)).S.sl_instructions

(* Major-heap words one sliced replay allocates (a deterministic count,
   unlike wall-clock): the graph's arrays are all major-heap blocks. *)
let major_words f =
  let _, _, m0 = Gc.counters () in
  let r = f () in
  let _, _, m1 = Gc.counters () in
  (r, m1 -. m0)

(* Sized from its window, squid's 2M-node replay allocates its graph once,
   about 2.8 words per node; doubling from a small start allocates 5.7. *)
let test_sized_allocation () =
  let cx = crashed_ctx "squid" in
  let r, words =
    Sweeper.Stage.Replay.analyze cx (fun p ->
        major_words (fun () ->
            S.run ~fuel:Sweeper.Stage.Replay.analysis_fuel
              ~window:cx.Sweeper.Stage.cx_window p))
  in
  let per_node = words /. float_of_int r.S.sl_instructions in
  if per_node > 4. then
    Alcotest.failf "slicing allocates %.2f major words/node" per_node

(* A window far past the fuel (an origin rollback on a long-lived server)
   sizes the graph for the fuel: a 10^7 window would ask for 2.6 * 10^7
   words. *)
let test_window_clamped_to_fuel () =
  let cx = crashed_ctx "squid" in
  let r, words =
    Sweeper.Stage.Replay.analyze cx (fun p ->
        major_words (fun () -> S.run ~fuel:1_000 ~window:10_000_000 p))
  in
  Alcotest.(check int) "ran out of fuel" 1_000 r.S.sl_instructions;
  if words > 100_000. then
    Alcotest.failf "a 1000-fuel slice allocates %.0f major words" words

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
      ( "pinned",
        List.concat_map
          (fun key ->
            [
              Alcotest.test_case (key ^ " slices match the pin") `Quick
                (exploit_pinned key);
              Alcotest.test_case (key ^ " window == replay length") `Quick
                (window_is_replay key);
            ])
          [ "apache1"; "apache2"; "cvs"; "squid" ] );
      ( "allocation",
        [
          Alcotest.test_case "sized graph allocates once" `Quick
            test_sized_allocation;
          Alcotest.test_case "window clamped to fuel" `Quick
            test_window_clamped_to_fuel;
        ] );
    ]
