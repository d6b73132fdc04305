(* Differential testing of the two taint engines.

   [Sweeper.Taint.run] replays on the fused shadow-memory fast loop;
   [Sweeper.Taint.Oracle.run] is the original per-byte, hook-driven
   engine kept verbatim as the reference. Both replay the same program
   image (one compile, two loads with the same ASLR seed, the same
   message) and must produce identical verdicts, blamed messages,
   propagation pcs, and instruction counts — for random MiniC programs
   spanning clean runs, stack smashes, and exec-sink hijacks.

   The guard (the online pre-hook monitor) is held to the same standard
   on a hook-driven run of each engine. *)

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

open Diff_recipes

let summarize (res : Sweeper.Taint.result) =
  ( Sweeper.Taint.verdict_to_string res.Sweeper.Taint.t_verdict,
    Sweeper.Taint.verdict_msgs res.Sweeper.Taint.t_verdict,
    res.Sweeper.Taint.t_prop_pcs,
    res.Sweeper.Taint.t_instructions )

let run_both r =
  let app = Minic.Driver.compile_app ~name:"tdiff" (source_of r) in
  let msg = message_of r in
  let fused = Sweeper.Taint.run (load_and_poke app msg) in
  let oracle = Sweeper.Taint.Oracle.run (load_and_poke app msg) in
  (summarize fused, summarize oracle)

let diff_qcheck =
  QCheck.Test.make ~name:"fused engine == per-byte oracle (random programs)"
    ~count:40 arb_recipe
    (fun r ->
      let fused, oracle = run_both r in
      fused = oracle)

(* ------------------------------------------------------------------ *)
(* Directed cases                                                      *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let directed r expect_sub () =
  let ((vf, _, pf, inf) as fused), oracle = run_both r in
  check_bool "engines agree" true (fused = oracle);
  check_bool
    (Printf.sprintf "verdict %S mentions %S" vf expect_sub)
    true (contains vf expect_sub);
  if expect_sub <> "no fault" then
    check_bool "propagation sites recorded" true (List.length pf > 0);
  check_bool "instructions counted" true (inf > 0)

(* ------------------------------------------------------------------ *)
(* Guard parity (the online monitor path)                              *)
(* ------------------------------------------------------------------ *)

(* Drive each engine the way a sampling host does — guard as a pre-hook,
   propagation as a post-hook — and require the same detection at the
   same pc with the same blamed-message string. *)
let run_guarded mk_hooks app msg =
  let proc = load_and_poke app msg in
  let cpu = proc.Osim.Process.cpu in
  let guard_hook, effect_hook = mk_hooks proc in
  let pre = Vm.Cpu.add_pre_hook cpu guard_hook in
  let post = Vm.Cpu.add_post_hook cpu effect_hook in
  let det =
    try
      ignore (Vm.Cpu.run ~fuel:2_000_000 cpu : Vm.Cpu.outcome);
      None
    with Sweeper.Detection.Detected d -> Some d
  in
  Vm.Cpu.remove_hook cpu pre;
  Vm.Cpu.remove_hook cpu post;
  det

let fast_hooks proc =
  let st = Sweeper.Taint.create proc in
  (Sweeper.Taint.guard st, Sweeper.Taint.on_effect st)

let oracle_hooks proc =
  let st = Sweeper.Taint.Oracle.create proc in
  (Sweeper.Taint.Oracle.guard st, Sweeper.Taint.Oracle.on_effect st)

let guard_parity r expect_detect () =
  let app = Minic.Driver.compile_app ~name:"tguard" (source_of r) in
  let msg = message_of r in
  let a = run_guarded fast_hooks app msg in
  let b = run_guarded oracle_hooks app msg in
  (match (a, b) with
  | None, None -> check_bool "no detection on either engine" false expect_detect
  | Some da, Some db ->
    check_bool "detection expected" true expect_detect;
    check_int "same pc" db.Sweeper.Detection.d_pc da.Sweeper.Detection.d_pc;
    check_str "same kind"
      (Sweeper.Detection.kind_to_string db.Sweeper.Detection.d_kind)
      (Sweeper.Detection.kind_to_string da.Sweeper.Detection.d_kind)
  | Some d, None ->
    Alcotest.fail ("only fused engine detected: " ^ Sweeper.Detection.to_string d)
  | None, Some d ->
    Alcotest.fail ("only oracle detected: " ^ Sweeper.Detection.to_string d))

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(qcheck_rand ()) in
  Alcotest.run "taint-diff"
    [
      ("differential", [ qt diff_qcheck ]);
      ( "directed",
        [
          Alcotest.test_case "clean run agrees" `Quick
            (directed clean_recipe "no fault");
          Alcotest.test_case "stack smash agrees" `Quick
            (directed smash_recipe "tainted return");
          Alcotest.test_case "exec hijack agrees" `Quick
            (directed exec_recipe "exec");
        ] );
      ( "guard",
        [
          Alcotest.test_case "guard stops the exec hijack identically" `Quick
            (guard_parity exec_recipe true);
          Alcotest.test_case "guard stays silent on a clean run" `Quick
            (guard_parity clean_recipe false);
        ] );
    ]
