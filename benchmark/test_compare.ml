(* The compare rule on synthetic run sets, and the quartiles it rests on. *)

open Harness

let close a b = Float.abs (a -. b) < 1e-9

let spec =
  {
    Spec.workloads = [ "w" ];
    end_to_end =
      [ { Spec.name = "lat"; unit_ = "ms"; better = Spec.Lower; bound = Some 0.1 };
        { Spec.name = "rate"; unit_ = "1/s"; better = Spec.Higher;
          bound = Some 0.1 } ];
    per_layer = [];
  }

let run ?(seed = 1) ?(correct = true) ?(failed = 0) ?(counters = []) lat rate =
  { Compare.workload = "w"; seed; correct; attempted = 100; failed;
    values = [ ("lat", lat); ("rate", rate) ]; counters }

let verdict report metric =
  (List.find (fun r -> r.Compare.r_metric = metric) report.Compare.rows)
    .Compare.r_verdict

let verdict_t =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Compare.verdict_name v))
    ( = )

let steady = List.init 10 (fun i -> 100. +. float_of_int (i mod 3))

let quartiles_match_python () =
  (* statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check bool) "q1" true (close q1 2.75);
  Alcotest.(check bool) "q3" true (close q3 8.25);
  (* statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0] *)
  let q1, q3 = Stats.quartiles [ 3.; 1.; 2. ] in
  Alcotest.(check bool) "q1 small" true (close q1 1.);
  Alcotest.(check bool) "q3 small" true (close q3 3.)

let within_bound () =
  let a = List.map (fun v -> run v 50.) steady in
  let b = List.map (fun v -> run (v +. 1.) 50.) steady in
  let r = Compare.compare_sets spec a b in
  Alcotest.check verdict_t "lat" Compare.Within_bound (verdict r "lat");
  Alcotest.(check bool) "gate passes" false (Compare.regressed r)

let regression_beyond_bound () =
  let a = List.map (fun v -> run v 50.) steady in
  let b = List.map (fun v -> run (v *. 1.2) (50. *. 0.8)) steady in
  let r = Compare.compare_sets spec a b in
  Alcotest.check verdict_t "lat" Compare.Regression (verdict r "lat");
  Alcotest.check verdict_t "rate (higher is better)" Compare.Regression
    (verdict r "rate");
  Alcotest.(check bool) "gate fails" true (Compare.regressed r)

let gain () =
  let a = List.map (fun v -> run v 50.) steady in
  let b = List.map (fun v -> run (v *. 0.8) 60.) steady in
  let r = Compare.compare_sets spec a b in
  Alcotest.check verdict_t "lat" Compare.Gain (verdict r "lat");
  Alcotest.check verdict_t "rate" Compare.Gain (verdict r "rate")

let gain_needs_nine_of_ten_pairs () =
  (* B's median is lower, but B loses 2 of 10 pairs. *)
  let a = List.map (fun v -> run v 50.) steady in
  let b =
    List.mapi (fun i v -> run (if i < 2 then v +. 5. else v -. 5.) 50.) steady
  in
  let r = Compare.compare_sets spec a b in
  Alcotest.check verdict_t "lat" Compare.Within_bound (verdict r "lat")

let wide_spread_is_unresolved () =
  let noisy = [ 60.; 80.; 100.; 120.; 140.; 70.; 90.; 110.; 130.; 100. ] in
  let a = List.map (fun v -> run v 50.) noisy in
  let b = List.map (fun v -> run v 50.) (List.rev noisy) in
  let r = Compare.compare_sets spec a b in
  Alcotest.check verdict_t "lat" Compare.Unresolved (verdict r "lat");
  Alcotest.(check bool) "not a regression" false (Compare.regressed r)

let gain_needs_ten_pairs () =
  (* Three clear wins are not enough runs to claim a gain. *)
  let a = List.map (fun v -> run v 50.) [ 100.; 101.; 102. ] in
  let b = List.map (fun v -> run v 50.) [ 80.; 81.; 82. ] in
  let r = Compare.compare_sets spec a b in
  Alcotest.check verdict_t "lat" Compare.Within_bound (verdict r "lat")

let every_b_beats_every_a_resolves () =
  (* Spread wider than the bound, but B is better than A in every run:
     not a regression and not unresolved, even without a 9/10 gain over
     A's IQR. *)
  let a = List.map (fun v -> run v 50.) [ 100.; 130.; 160. ] in
  let b = List.map (fun v -> run v 50.) [ 99.; 98.; 97. ] in
  let r = Compare.compare_sets spec a b in
  Alcotest.(check bool) "resolved" true (verdict r "lat" <> Compare.Unresolved)

let failure_share_rise_is_a_regression () =
  let a = List.map (fun v -> run v 50.) steady in
  let b = List.mapi (fun i v -> run ~failed:(if i = 0 then 1 else 0) v 50.) steady in
  let r = Compare.compare_sets spec a b in
  Alcotest.(check bool) "gate fails" true (Compare.regressed r)

let incorrect_run_is_a_regression () =
  let a = List.map (fun v -> run v 50.) steady in
  let b = List.mapi (fun i v -> run ~correct:(i <> 3) v 50.) steady in
  Alcotest.(check bool) "gate fails" true
    (Compare.regressed (Compare.compare_sets spec a b))

let counter_differences_are_reported () =
  let a = [ run ~counters:[ ("vm.instructions", 10) ] 100. 50. ] in
  let b = [ run ~counters:[ ("vm.instructions", 11) ] 100. 50. ] in
  let r = Compare.compare_sets spec a b in
  Alcotest.(check int) "one note" 1 (List.length r.Compare.counter_notes);
  let other_seed = [ run ~seed:2 ~counters:[ ("vm.instructions", 11) ] 100. 50. ] in
  let r = Compare.compare_sets spec a other_seed in
  Alcotest.(check int) "other seeds may differ" 0
    (List.length r.Compare.counter_notes)

let () =
  Alcotest.run "benchmark"
    [
      ( "compare",
        [
          Alcotest.test_case "quartiles match Python" `Quick
            quartiles_match_python;
          Alcotest.test_case "within bound" `Quick within_bound;
          Alcotest.test_case "regression beyond bound" `Quick
            regression_beyond_bound;
          Alcotest.test_case "gain" `Quick gain;
          Alcotest.test_case "gain needs 9/10 pairs" `Quick
            gain_needs_nine_of_ten_pairs;
          Alcotest.test_case "gain needs 10 pairs" `Quick gain_needs_ten_pairs;
          Alcotest.test_case "wide spread is unresolved" `Quick
            wide_spread_is_unresolved;
          Alcotest.test_case "every B beats every A" `Quick
            every_b_beats_every_a_resolves;
          Alcotest.test_case "failure share" `Quick
            failure_share_rise_is_a_regression;
          Alcotest.test_case "incorrect run" `Quick incorrect_run_is_a_regression;
          Alcotest.test_case "counter differences" `Quick
            counter_differences_are_reported;
        ] );
    ]
