(* The benchmark command line.

     main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]
                  [--out F.json] [--trace-out T.json] [--smoke]
     main.exe compare [--spec BENCHMARK.json] A1.json ... -- B1.json ...
     main.exe selftest BENCHMARK.json

   [run] prints every metric by name with its unit, then, as the last
   line of stdout, one JSON object with the keys correct, attempted,
   failed and metrics; it exits 1 when a correctness check failed. See
   README.md for the workloads, the metrics and the compare rule. *)

open Harness

let usage () =
  prerr_endline
    "usage: main.exe run --workload W [--seed N] [--seconds S] [--trace 0|1] \
     [--out F.json] [--trace-out T.json] [--smoke]\n\
    \       main.exe compare [--spec BENCHMARK.json] A.json... -- B.json...\n\
    \       main.exe selftest BENCHMARK.json";
  exit 2

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let run_cmd args =
  let workload = ref None and seed = ref 1 and seconds = ref 20. in
  let traced = ref false and out = ref None and trace_out = ref None in
  let smoke = ref false in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> traced := t = "1"; parse rest
    | "--out" :: f :: rest -> out := Some f; parse rest
    | "--trace-out" :: f :: rest -> trace_out := Some f; parse rest
    | "--smoke" :: rest -> smoke := true; parse rest
    | [] -> ()
    | a :: _ -> prerr_endline ("unknown argument " ^ a); usage ()
  in
  (try parse args with Failure _ -> usage ());
  let workload =
    match !workload with
    | Some w when List.mem_assoc w Workloads.all -> w
    | Some w ->
      prerr_endline
        ("unknown workload " ^ w ^ "; one of: "
        ^ String.concat ", " (List.map fst Workloads.all));
      exit 2
    | None -> usage ()
  in
  let r =
    Runner.run ?trace_out:!trace_out ~workload ~seed:!seed ~seconds:!seconds
      ~smoke:!smoke ~traced:!traced ()
  in
  Runner.print r;
  Option.iter
    (fun f -> write_file f (Obs.Json.to_string (Runner.to_json ~full:true r) ^ "\n"))
    !out;
  print_endline (Obs.Json.to_string (Runner.to_json ~full:false r));
  exit (if Runner.correct r then 0 else 1)

let load_spec path =
  match Spec.load path with
  | Ok s -> s
  | Error e ->
    prerr_endline e;
    exit 2

let compare_cmd args =
  let spec, args =
    match args with
    | "--spec" :: p :: rest -> (p, rest)
    | _ -> ("BENCHMARK.json", args)
  in
  let spec = load_spec spec in
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> usage ()
  in
  let fa, fb = split [] args in
  let load f =
    match Compare.load f with
    | Ok r -> r
    | Error e ->
      prerr_endline e;
      exit 2
  in
  if fa = [] || fb = [] then usage ();
  let report =
    Compare.compare_sets spec (List.map load fa) (List.map load fb)
  in
  Compare.print report;
  exit (if Compare.regressed report then 1 else 0)

(* Runs every workload at smoke scale, untraced and traced, and checks
   that the metric names each emits are exactly the ones BENCHMARK.json
   declares, and that every correctness check passes. Never looks at a
   timing. *)
let selftest_cmd path =
  let spec = load_spec path in
  let names l = List.sort_uniq compare l in
  let problems = ref [] in
  let problem s = problems := s :: !problems in
  let declared = names spec.Spec.workloads in
  if declared <> names (List.map fst Workloads.all) then
    problem
      (Printf.sprintf "workloads: declared [%s], implemented [%s]"
         (String.concat "," declared)
         (String.concat "," (List.map fst Workloads.all)));
  List.iter
    (fun (w, _) ->
      List.iter
        (fun traced ->
          let r =
            Runner.run ~workload:w ~seed:1 ~seconds:0.2 ~smoke:true ~traced ()
          in
          let emitted = names (List.map (fun m -> m.Runner.name) r.Runner.metrics) in
          let want =
            names
              (List.map
                 (fun m -> m.Spec.name)
                 (if traced then spec.Spec.per_layer else spec.Spec.end_to_end))
          in
          let diff a b = List.filter (fun x -> not (List.mem x b)) a in
          let tag = Printf.sprintf "%s (trace %b)" w traced in
          if emitted <> want then
            problem
              (Printf.sprintf "%s: undeclared [%s], missing [%s]" tag
                 (String.concat "," (diff emitted want))
                 (String.concat "," (diff want emitted)));
          List.iter
            (fun m ->
              match Spec.find spec m.Runner.name with
              | Some d when d.Spec.unit_ <> m.Runner.unit_ ->
                problem
                  (Printf.sprintf "%s: %s in %s, declared %s" tag m.Runner.name
                     m.Runner.unit_ d.Spec.unit_)
              | _ ->
                (* A baseline median of 0 would make every bound vacuous. *)
                if (not traced) && not (Float.is_finite m.Runner.value && m.Runner.value > 0.)
                then
                  problem
                    (Printf.sprintf "%s: %s reads %g" tag m.Runner.name
                       m.Runner.value))
            r.Runner.metrics;
          List.iter (fun f -> problem (tag ^ ": " ^ f)) r.Runner.failures;
          Printf.printf "selftest %s: %d metrics, %d checks\n%!" tag
            (List.length emitted) r.Runner.attempted)
        [ false; true ])
    Workloads.all;
  match !problems with
  | [] -> print_endline "selftest: ok"
  | ps ->
    List.iter (fun p -> prerr_endline ("selftest: " ^ p)) (List.rev ps);
    exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_cmd args
  | "compare" :: args -> compare_cmd args
  | [ "selftest"; path ] -> selftest_cmd path
  | _ -> usage ()
