(* Tests for the Sweeper core: core-dump analysis, memory-bug detection,
   taint analysis, backward slicing, signatures, VSEFs, antibodies,
   recovery, and the end-to-end orchestrator against all four exploits. *)

module O = Sweeper.Orchestrator

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

(* Boot an app, serve benign traffic, fire the exploit; return the faulted
   server (pre-analysis). *)
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

(* Full pipeline; memoized per app key to keep the suite fast. *)
let reports : (string, O.report * Osim.Server.t * Osim.Process.t) Hashtbl.t =
  Hashtbl.create 4

let analyzed key =
  match Hashtbl.find_opt reports key with
  | Some r -> r
  | None ->
    let proc, server, fault = crash_server key in
    let r = O.handle_attack ~app:key server fault in
    Hashtbl.replace reports key (r, server, proc);
    (r, server, proc)

(* ------------------------------------------------------------------ *)
(* Core-dump analysis                                                  *)
(* ------------------------------------------------------------------ *)

let test_coredump_apache1 () =
  let proc, _, fault = crash_server "apache1" in
  let r = Sweeper.Coredump.analyze proc fault in
  check_bool "stack inconsistent" false r.Sweeper.Coredump.c_stack_consistent;
  check_bool "diagnosis" true
    (r.Sweeper.Coredump.c_diagnosis = Sweeper.Coredump.Stack_smash_suspected);
  check_str "crash function" "try_alias_list"
    (Option.value ~default:"?" r.Sweeper.Coredump.c_crash_fn);
  match r.Sweeper.Coredump.c_vsef with
  | Some { Sweeper.Vsef.v_check = Sweeper.Vsef.Side_stack { fn; _ }; _ } ->
    check_str "side-stack target" "try_alias_list" fn
  | _ -> Alcotest.fail "expected side-stack VSEF"

let test_coredump_apache2 () =
  let proc, _, fault = crash_server "apache2" in
  let r = Sweeper.Coredump.analyze proc fault in
  check_bool "stack consistent" true r.Sweeper.Coredump.c_stack_consistent;
  check_bool "heap consistent" true r.Sweeper.Coredump.c_heap_consistent;
  check_bool "diagnosis" true
    (r.Sweeper.Coredump.c_diagnosis = Sweeper.Coredump.Null_dereference);
  check_str "crash function" "is_ip"
    (Option.value ~default:"?" r.Sweeper.Coredump.c_crash_fn)

let test_coredump_cvs () =
  let proc, _, fault = crash_server "cvs" in
  let r = Sweeper.Coredump.analyze proc fault in
  check_bool "heap inconsistent" false r.Sweeper.Coredump.c_heap_consistent;
  check_bool "diagnosis" true
    (r.Sweeper.Coredump.c_diagnosis = Sweeper.Coredump.Double_free_suspected);
  check_str "crash function" "free"
    (Option.value ~default:"?" r.Sweeper.Coredump.c_crash_fn)

let test_coredump_squid () =
  let proc, _, fault = crash_server "squid" in
  let r = Sweeper.Coredump.analyze proc fault in
  check_bool "heap inconsistent" false r.Sweeper.Coredump.c_heap_consistent;
  check_bool "diagnosis" true
    (r.Sweeper.Coredump.c_diagnosis = Sweeper.Coredump.Heap_overflow_suspected);
  check_str "crash function" "strcat"
    (Option.value ~default:"?" r.Sweeper.Coredump.c_crash_fn);
  (* The initial VSEF is context-qualified by the caller. *)
  match r.Sweeper.Coredump.c_vsef with
  | Some { Sweeper.Vsef.v_check = Sweeper.Vsef.Heap_bounds { caller; _ }; _ } ->
    check_str "caller context" "ftp_build_title_url"
      (Option.value ~default:"?" caller)
  | _ -> Alcotest.fail "expected heap-bounds VSEF"

(* ------------------------------------------------------------------ *)
(* Memory-bug detection                                                *)
(* ------------------------------------------------------------------ *)

let membug_findings key =
  let r, _, _ = analyzed key in
  r.O.a_membug.Sweeper.Membug.m_findings

let fn_of proc pc =
  let s = Osim.Process.describe_addr proc pc in
  match String.index_opt s '(' with
  | Some i ->
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    let stop =
      match (String.index_opt rest '+', String.index_opt rest ')') with
      | Some a, Some b -> min a b
      | Some a, None -> a
      | None, Some b -> b
      | None, None -> String.length rest
    in
    String.sub rest 0 stop
  | None -> s

let test_membug_apache1 () =
  let r, _, proc = analyzed "apache1" in
  ignore r;
  match
    List.find_opt
      (function Sweeper.Membug.Stack_smash _ -> true | _ -> false)
      (membug_findings "apache1")
  with
  | Some (Sweeper.Membug.Stack_smash { store_pc; _ }) ->
    check_str "smashing store is in lmatcher" "lmatcher" (fn_of proc store_pc)
  | _ -> Alcotest.fail "expected stack-smash finding"

let test_membug_apache2 () =
  check_int "no memory bug for NULL deref" 0
    (List.length (membug_findings "apache2"))

let test_membug_cvs () =
  let _, _, proc = analyzed "cvs" in
  match
    List.find_opt
      (function Sweeper.Membug.Double_free _ -> true | _ -> false)
      (membug_findings "cvs")
  with
  | Some (Sweeper.Membug.Double_free { call_pc; _ }) ->
    check_str "double free by dirswitch" "dirswitch" (fn_of proc call_pc)
  | _ -> Alcotest.fail "expected double-free finding"

let test_membug_squid () =
  let _, _, proc = analyzed "squid" in
  match
    List.find_opt
      (function Sweeper.Membug.Heap_overflow _ -> true | _ -> false)
      (membug_findings "squid")
  with
  | Some (Sweeper.Membug.Heap_overflow { store_pc; _ }) ->
    check_str "overflowing store in strcat" "strcat" (fn_of proc store_pc)
  | _ -> Alcotest.fail "expected heap-overflow finding"

(* ------------------------------------------------------------------ *)
(* Taint analysis                                                      *)
(* ------------------------------------------------------------------ *)

let test_taint_apache1 () =
  let r, _, _ = analyzed "apache1" in
  match r.O.a_taint.Sweeper.Taint.t_verdict with
  | Sweeper.Taint.Tainted_ret { msgs; _ } ->
    check_int "single responsible message" 1
      (Sweeper.Taint.Int_set.cardinal msgs)
  | v -> Alcotest.fail ("expected tainted ret, got " ^ Sweeper.Taint.verdict_to_string v)

let test_taint_squid () =
  let r, _, _ = analyzed "squid" in
  match r.O.a_taint.Sweeper.Taint.t_verdict with
  | Sweeper.Taint.Tainted_store_fault { msgs; _ } ->
    check_int "single responsible message" 1
      (Sweeper.Taint.Int_set.cardinal msgs)
  | v -> Alcotest.fail ("expected tainted store, got " ^ Sweeper.Taint.verdict_to_string v)

let test_taint_apache2_untainted () =
  (* The NULL pointer is a program constant: taint analysis must NOT blame
     the input (that is what input isolation is for). *)
  let r, _, _ = analyzed "apache2" in
  match r.O.a_taint.Sweeper.Taint.t_verdict with
  | Sweeper.Taint.Untainted_fault _ -> ()
  | v -> Alcotest.fail ("expected untainted fault, got " ^ Sweeper.Taint.verdict_to_string v)

let test_taint_propagation_unit () =
  (* Direct unit test of propagation: recv -> copy -> smashed return. *)
  let src =
    {|
    char buf[128];
    void vuln(char *s) {
      char local[8];
      int i = 0;
      while (s[i] != 0) { local[i] = s[i]; i = i + 1; }
    }
    int main() {
      int n = _recv(buf, 128);
      vuln(buf);
      return 0;
    }
  |}
  in
  let proc =
    Osim.Process.load ~aslr:true ~seed:3 (Minic.Driver.compile_app ~name:"t" src)
  in
  ignore (Osim.Process.run proc);
  ignore (Osim.Process.send_message proc (String.make 40 'Z'));
  let result = Sweeper.Taint.run proc in
  (match result.Sweeper.Taint.t_verdict with
  | Sweeper.Taint.Tainted_ret { msgs; _ } ->
    check_bool "message 0 blamed" true (Sweeper.Taint.Int_set.mem 0 msgs)
  | v -> Alcotest.fail ("expected tainted ret: " ^ Sweeper.Taint.verdict_to_string v));
  check_bool "propagation sites recorded" true
    (List.length result.Sweeper.Taint.t_prop_pcs > 0)

(* ------------------------------------------------------------------ *)
(* Backward slicing                                                    *)
(* ------------------------------------------------------------------ *)

let test_slice_verifies_all_apps () =
  List.iter
    (fun key ->
      let r, _, _ = analyzed key in
      check_bool (key ^ " slice verifies") true r.O.a_slice_verifies;
      check_bool (key ^ " slice smaller than window") true
        (r.O.a_slice.Sweeper.Slice.s_slice_size
        <= r.O.a_slice.Sweeper.Slice.s_nodes))
    [ "apache1"; "apache2"; "cvs"; "squid" ]

let test_slice_excludes_unrelated () =
  (* Two independent computations; the slice from a fault in one must not
     contain the other's instructions. *)
  let src =
    {|
    int unrelated;
    void noise() { unrelated = 12345; }
    int main() {
      noise();
      int *p = (int*)0;
      return *p;
    }
  |}
  in
  let proc =
    Osim.Process.load ~aslr:false ~seed:1 (Minic.Driver.compile_app ~name:"t" src)
  in
  let result = Sweeper.Slice.run proc in
  let s = result.Sweeper.Slice.sl_summary in
  check_bool "slice nonempty" true (s.Sweeper.Slice.s_slice_size > 0);
  (* The store to [unrelated] must not be in the slice: find its pc. *)
  let noise_store = ref None in
  Vm.Program.iteri
    (fun pc i ->
      match i with
      | Vm.Isa.Store (Vm.Isa.R1, 0, Vm.Isa.R0) when !noise_store = None ->
        let s = Osim.Process.describe_addr proc pc in
        if
          match String.index_opt s '(' with
          | Some idx ->
            String.length s > idx + 5 && String.sub s (idx + 1) 5 = "noise"
          | None -> false
        then noise_store := Some pc
      | _ -> ())
    proc.Osim.Process.cpu.Vm.Cpu.code;
  let noise_store = !noise_store in
  match noise_store with
  | Some pc ->
    check_bool "noise store excluded from slice" false
      (Sweeper.Slice.verifies s pc)
  | None -> Alcotest.fail "could not locate the noise store"

let test_slice_includes_data_chain () =
  (* x flows through y into the faulting address: all hops in the slice. *)
  let src =
    {|
    int main() {
      int x = 0;
      int y = x + 0;
      int *p = (int*)y;
      return *p;
    }
  |}
  in
  let proc =
    Osim.Process.load ~aslr:false ~seed:1 (Minic.Driver.compile_app ~name:"t" src)
  in
  let result = Sweeper.Slice.run proc in
  let s = result.Sweeper.Slice.sl_summary in
  check_bool "several sites in slice" true
    (O.Int_set.cardinal s.Sweeper.Slice.s_pcs > 3)

let test_slice_stack_exhaustion () =
  (* [f]'s frame is larger than the whole 64 KiB stack, so the prologue's
     [sub sp, frame] moves SP off the stack and the first call in [f]
     faults on its return-address store. The faulting [Call] depends on
     SP, so the slice must reach back to the [sub] that moved it. *)
  let src =
    {|
    int g() { return 1; }
    int f() {
      char big[70000];
      g();
      return big[0];
    }
    int main() { return f(); }
  |}
  in
  let proc =
    Osim.Process.load ~aslr:false ~seed:1 (Minic.Driver.compile_app ~name:"t" src)
  in
  let s = (Sweeper.Slice.run proc).Sweeper.Slice.sl_summary in
  let code = proc.Osim.Process.cpu.Vm.Cpu.code in
  (match Vm.Program.fetch code s.Sweeper.Slice.s_fault_pc with
  | Some (Vm.Isa.Call _) -> ()
  | _ -> Alcotest.fail "expected the fault at a call");
  let prologue = ref None in
  Vm.Program.iteri
    (fun pc i ->
      match i with
      | Vm.Isa.Bin (Vm.Isa.Sub, Vm.Isa.SP, Vm.Isa.Imm n) when n >= 70000 ->
        prologue := Some pc
      | _ -> ())
    code;
  match !prologue with
  | Some pc -> check_bool "prologue sub sp in slice" true (Sweeper.Slice.verifies s pc)
  | None -> Alcotest.fail "could not locate f's prologue"

let test_slice_message_attribution () =
  let r, _, _ = analyzed "apache1" in
  let msgs = r.O.a_slice.Sweeper.Slice.s_msgs in
  (* The malicious message must be among the slice's input dependencies. *)
  List.iter
    (fun id -> check_bool "isolated msg in slice msgs" true (O.Int_set.mem id msgs))
    r.O.a_isolation

(* ------------------------------------------------------------------ *)
(* Signatures                                                          *)
(* ------------------------------------------------------------------ *)

let test_signature_exact () =
  let s = Sweeper.Signature.exact "attack-bytes" in
  check_bool "matches itself" true (Sweeper.Signature.matches s "attack-bytes");
  check_bool "prefix does not match" false
    (Sweeper.Signature.matches s "attack-bytes-variant");
  check_bool "other does not match" false (Sweeper.Signature.matches s "benign")

let test_signature_tokens () =
  let variants =
    [ "GET /evil?pad=AAAA HTTP"; "GET /evil?pad=BBBB HTTP"; "GET /evil?pad=zz9 HTTP" ]
  in
  let s = Sweeper.Signature.tokens_of_variants variants in
  List.iter
    (fun v -> check_bool "matches every variant" true (Sweeper.Signature.matches s v))
    variants;
  check_bool "matches fresh variant" true
    (Sweeper.Signature.matches s "GET /evil?pad=qqqq HTTP");
  check_bool "benign does not match" false
    (Sweeper.Signature.matches s "GET /index.html HTTP")

let test_signature_tokens_ordered () =
  let s = Sweeper.Signature.Tokens [ "alpha"; "beta" ] in
  check_bool "in order" true (Sweeper.Signature.matches s "xx alpha yy beta zz");
  check_bool "wrong order" false (Sweeper.Signature.matches s "beta then alpha")

let prop_tokens_match_their_variants =
  QCheck.Test.make ~name:"token signature matches its variants" ~count:40
    QCheck.(pair small_printable_string (small_list small_printable_string))
    (fun (core, pads) ->
      QCheck.assume (String.length core >= 4);
      let variants = List.map (fun p -> "HDR:" ^ core ^ p) ("" :: pads) in
      let s = Sweeper.Signature.tokens_of_variants variants in
      List.for_all (Sweeper.Signature.matches s) variants)

(* ------------------------------------------------------------------ *)
(* VSEFs                                                               *)
(* ------------------------------------------------------------------ *)

(* Deploy only the given VSEFs on a fresh host and re-fire the exploit. *)
let vsefs_stop_exploit key vsefs =
  let entry = Apps.Registry.find key in
  let proc = Osim.Process.load ~aslr:true ~seed:91 (entry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  let _installed = List.map (Sweeper.Vsef.install proc) vsefs in
  let exploit = Apps.Registry.exploit ~system_guess:0x22334455 ~cmd_ptr:0 key in
  let tripped = ref false in
  List.iter
    (fun m ->
      match Osim.Server.handle server m with
      | `Served _ | `Filtered _ | `Stopped -> ()
      | `Crashed _ | `Infected _ -> ()
      | exception Sweeper.Detection.Detected _ -> tripped := true)
    exploit.Apps.Exploits.x_messages;
  !tripped

let test_vsef_blocks key () =
  let r, _, _ = analyzed key in
  check_bool (key ^ " VSEFs trip on re-attack") true
    (vsefs_stop_exploit key r.O.a_vsefs)

let test_vsef_no_false_positives key () =
  let r, _, _ = analyzed key in
  let entry = Apps.Registry.find key in
  let proc = Osim.Process.load ~aslr:true ~seed:92 (entry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  let _ = List.map (Sweeper.Vsef.install proc) r.O.a_vsefs in
  List.iter
    (fun m ->
      match Osim.Server.handle server m with
      | `Served _ -> ()
      | `Filtered f -> Alcotest.fail ("benign filtered by " ^ f)
      | _ -> Alcotest.fail "benign traffic misbehaved under VSEF"
      | exception Sweeper.Detection.Detected d ->
        Alcotest.fail ("VSEF false positive: " ^ Sweeper.Detection.to_string d))
    (Apps.Registry.workload ~seed:17 key 25)

let test_vsef_footprint_small () =
  List.iter
    (fun key ->
      let r, _, _ = analyzed key in
      let entry = Apps.Registry.find key in
      let proc = Osim.Process.load ~aslr:true ~seed:93 (entry.r_compile ()) in
      let installed = List.map (Sweeper.Vsef.install proc) r.O.a_vsefs in
      let total =
        List.fold_left (fun a i -> a + Sweeper.Vsef.footprint i) 0 installed
      in
      (* "only a handful of instrumentation instructions" — allow some slack
         for the taint filter's propagation list. *)
      check_bool (key ^ " footprint bounded") true (total < 600);
      List.iter Sweeper.Vsef.uninstall installed;
      check_int (key ^ " uninstall removes hooks") 0
        (Vm.Cpu.pc_hook_count proc.Osim.Process.cpu))
    [ "apache1"; "apache2"; "cvs"; "squid" ]

let test_vsef_catches_polymorphic_variants () =
  (* Exact signatures miss variants; VSEFs must not. *)
  List.iter
    (fun key ->
      let r, _, _ = analyzed key in
      let variants =
        Apps.Exploits.variants ~system_guess:0x33445566 ~cmd_ptr:0 key
      in
      List.iter
        (fun (v : Apps.Exploits.t) ->
          let entry = Apps.Registry.find key in
          let proc = Osim.Process.load ~aslr:true ~seed:94 (entry.r_compile ()) in
          let server = Osim.Server.create proc in
          ignore (Osim.Server.run server);
          let _ = List.map (Sweeper.Vsef.install proc) r.O.a_vsefs in
          let outcome = ref `Nothing in
          List.iter
            (fun m ->
              match Osim.Server.handle server m with
              | `Crashed _ -> if !outcome = `Nothing then outcome := `Crashed
              | `Infected _ -> outcome := `Infected
              | _ -> ()
              | exception Sweeper.Detection.Detected _ -> outcome := `Tripped)
            v.Apps.Exploits.x_messages;
          check_bool
            (Printf.sprintf "%s variant %s stopped before corruption" key
               v.Apps.Exploits.x_name)
            true (!outcome = `Tripped))
        variants)
    [ "apache1"; "cvs"; "squid" ]

(* ------------------------------------------------------------------ *)
(* Antibody                                                            *)
(* ------------------------------------------------------------------ *)

let test_antibody_stages () =
  let r, _, _ = analyzed "apache1" in
  let ab = r.O.a_antibody in
  check_bool "full stage" true (ab.Sweeper.Antibody.ab_stage = Sweeper.Antibody.Full);
  check_bool "has signature" true (ab.Sweeper.Antibody.ab_signature <> None);
  check_bool "carries exploit input" true
    (ab.Sweeper.Antibody.ab_exploit_input <> None);
  check_bool "has VSEFs" true (List.length ab.Sweeper.Antibody.ab_vsefs >= 2)

let test_antibody_verification () =
  (* An untrusting consumer can reproduce the misbehaviour in a sandbox. *)
  List.iter
    (fun key ->
      let r, _, _ = analyzed key in
      let entry = Apps.Registry.find key in
      check_bool (key ^ " antibody verifies") true
        (Sweeper.Antibody.verify r.O.a_antibody ~compile:entry.r_compile))
    [ "apache1"; "apache2"; "cvs"; "squid" ]

let test_antibody_bogus_does_not_verify () =
  let entry = Apps.Registry.find "apache1" in
  let bogus =
    {
      Sweeper.Antibody.ab_app = "apache1";
      ab_stage = Sweeper.Antibody.Full;
      ab_vsefs = [];
      ab_signature = Some (Sweeper.Signature.exact "harmless");
      ab_exploit_input = Some [ "GET /harmless\n" ];
    }
  in
  check_bool "benign input does not verify" false
    (Sweeper.Antibody.verify bogus ~compile:entry.r_compile)

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

let test_recovery_preserves_state_and_service () =
  (* CVS keeps per-session state (entry_count): recovery must preserve the
     benign-message effects while dropping the malicious stream. *)
  let entry = Apps.Registry.find "cvs" in
  let proc = Osim.Process.load ~aslr:true ~seed:55 (entry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  List.iter
    (fun m -> ignore (Osim.Server.handle server m))
    [ "Entry /src/a.c"; "Entry /src/b.c"; "Entry /src/c.c" ];
  let exploit = Apps.Registry.exploit "cvs" in
  List.iter
    (fun m ->
      match O.protected_handle ~app:"cvs" server m with
      | `Attack _ | `Served _ -> ()
      | _ -> Alcotest.fail "unexpected status during attack")
    exploit.Apps.Exploits.x_messages;
  (* In-memory state survived (no restart): three entries still counted. *)
  let entry_count =
    Vm.Memory.load_word proc.Osim.Process.mem
      (Hashtbl.find proc.Osim.Process.data_symbols "entry_count")
  in
  check_int "entry_count preserved across recovery" 3 entry_count;
  (* And the server still answers. *)
  match Osim.Server.handle server "noop" with
  | `Served _ -> ()
  | _ -> Alcotest.fail "server dead after recovery"

let test_recovery_no_duplicate_responses () =
  let r, server, proc = analyzed "apache1" in
  ignore r;
  ignore server;
  (* Each benign message answered exactly once despite the replay. *)
  let by_msg = Hashtbl.create 32 in
  List.iter
    (fun (id, _) ->
      Hashtbl.replace by_msg id (1 + Option.value ~default:0 (Hashtbl.find_opt by_msg id)))
    (Osim.Process.committed_outputs proc);
  Hashtbl.iter
    (fun id n -> check_int (Printf.sprintf "msg %d answered once" id) 1 n)
    by_msg

let test_full_pipeline_outcomes () =
  (* The Table 2 shaped assertions for every app, end to end. *)
  let expect =
    [
      ("apache1", Sweeper.Coredump.Stack_smash_suspected, true, false);
      ("apache2", Sweeper.Coredump.Null_dereference, true, false);
      ("cvs", Sweeper.Coredump.Double_free_suspected, true, true);
      ("squid", Sweeper.Coredump.Heap_overflow_suspected, true, false);
    ]
  in
  List.iter
    (fun (key, diagnosis, input_found, stream) ->
      let r, _, _ = analyzed key in
      check_bool (key ^ " diagnosis") true
        (r.O.a_coredump.Sweeper.Coredump.c_diagnosis = diagnosis);
      check_bool (key ^ " input found") input_found (r.O.a_isolation <> []);
      check_bool (key ^ " stream-only") stream r.O.a_isolation_stream;
      check_bool (key ^ " produced vsefs") true (r.O.a_vsefs <> []);
      check_bool (key ^ " timing order: first <= best <= total") true
        (r.O.a_time_to_first_vsef_ms <= r.O.a_time_to_best_vsef_ms
        && r.O.a_time_to_best_vsef_ms <= r.O.a_total_ms))
    expect

let test_reattack_blocked_after_analysis () =
  List.iter
    (fun key ->
      let _, server, _ = analyzed key in
      let exploit =
        Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 key
      in
      let stopped = ref false in
      List.iter
        (fun m ->
          match O.protected_handle ~app:key server m with
          | `Filtered _ | `Blocked_by_vsef _ -> stopped := true
          | `Served _ -> ()
          | `Attack _ -> Alcotest.fail (key ^ ": crashed again after antibody")
          | `Stopped | `Compromised -> Alcotest.fail (key ^ ": bad status"))
        exploit.Apps.Exploits.x_messages;
      check_bool (key ^ " re-attack stopped") true !stopped)
    [ "apache1"; "apache2"; "cvs"; "squid" ]

let test_frame_pointer_corruption_variant () =
  (* An exploit whose address guess contains a NUL corrupts only the saved
     frame pointer: the function returns normally, then the caller faults
     on a wild access. The paper notes the initial (return-address) VSEF
     cannot cover this sub-vulnerability; memory-bug detection must still
     pin the overflowing store. *)
  let entry = Apps.Registry.find "apache1" in
  let proc = Osim.Process.load ~aslr:true ~seed:71 (entry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  List.iter
    (fun m -> ignore (Osim.Server.handle server m))
    (Apps.Registry.workload ~seed:71 "apache1" 5);
  (* guess 0 -> NUL bytes -> copy stops before the return address *)
  let exploit = Apps.Exploits.apache1 ~system_guess:0 ~cmd_ptr:0 () in
  let report = ref None in
  List.iter
    (fun m ->
      match O.protected_handle ~app:"apache1" server m with
      | `Attack r -> report := Some r
      | _ -> ())
    exploit.Apps.Exploits.x_messages;
  let r = Option.get !report in
  check_bool "diagnosed as stack smashing" true
    (r.O.a_coredump.Sweeper.Coredump.c_diagnosis
    = Sweeper.Coredump.Stack_smash_suspected);
  check_bool "stack walk inconsistent" false
    r.O.a_coredump.Sweeper.Coredump.c_stack_consistent;
  (* membug still identifies the overflowing store in lmatcher. *)
  let _, _, proc_ref = analyzed "apache1" in
  ignore proc_ref;
  (match
     List.find_opt
       (function Sweeper.Membug.Stack_smash _ -> true | _ -> false)
       r.O.a_membug.Sweeper.Membug.m_findings
   with
  | Some (Sweeper.Membug.Stack_smash { store_pc; _ }) ->
    check_str "store in lmatcher" "lmatcher" (fn_of proc store_pc)
  | _ -> Alcotest.fail "membug missed the overflow");
  check_bool "refined VSEF exists" true
    (List.exists
       (fun v ->
         match v.Sweeper.Vsef.v_check with
         | Sweeper.Vsef.Store_guard _ -> true
         | _ -> false)
       r.O.a_vsefs)

(* ------------------------------------------------------------------ *)
(* Sampling (Section 4.2)                                              *)
(* ------------------------------------------------------------------ *)

let test_sampling_catches_successful_hijack () =
  (* A legacy host without ASLR: the worm's address guess is exact, so the
     lightweight monitor would never fire — but the sampled taint monitor
     vetoes the hijack before exec commits. *)
  let entry = Apps.Registry.find "apache1" in
  let proc = Osim.Process.load ~aslr:false ~seed:61 (entry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  let sampler = Sweeper.Sampling.create ~rate:1 server in
  let system = Osim.Process.system_addr proc in
  let reqbuf = Hashtbl.find proc.Osim.Process.data_symbols "reqbuf" in
  let exploit =
    Apps.Exploits.apache1_against ~system_guess:system ~reqbuf_addr:reqbuf ()
  in
  List.iter
    (fun m ->
      match Sweeper.Sampling.handle sampler m with
      | Sweeper.Sampling.Taint_alarm d ->
        check_bool "taint sink detection" true
          (match d.Sweeper.Detection.d_kind with
          | Sweeper.Detection.Taint_sink _ -> true
          | _ -> false)
      | Sweeper.Sampling.Plain (`Infected _) ->
        Alcotest.fail "sampling missed the hijack"
      | Sweeper.Sampling.Plain _ -> Alcotest.fail "expected a taint alarm")
    exploit.Apps.Exploits.x_messages;
  check_int "one alarm" 1 sampler.Sweeper.Sampling.alarms;
  check_bool "process not compromised" true
    (proc.Osim.Process.compromised = None)

let test_sampling_unsampled_messages_miss () =
  (* rate = 0 disables sampling entirely: the hijack goes through. *)
  let entry = Apps.Registry.find "apache1" in
  let proc = Osim.Process.load ~aslr:false ~seed:61 (entry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  let sampler = Sweeper.Sampling.create ~rate:0 server in
  let system = Osim.Process.system_addr proc in
  let reqbuf = Hashtbl.find proc.Osim.Process.data_symbols "reqbuf" in
  let exploit =
    Apps.Exploits.apache1_against ~system_guess:system ~reqbuf_addr:reqbuf ()
  in
  List.iter
    (fun m ->
      match Sweeper.Sampling.handle sampler m with
      | Sweeper.Sampling.Plain (`Infected _) -> ()
      | _ -> Alcotest.fail "expected infection with sampling off")
    exploit.Apps.Exploits.x_messages

let test_sampling_rate_and_overhead_accounting () =
  let entry = Apps.Registry.find "apache2" in
  let proc = Osim.Process.load ~aslr:true ~seed:62 (entry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  let sampler = Sweeper.Sampling.create ~rate:5 server in
  List.iter
    (fun m -> ignore (Sweeper.Sampling.handle sampler m))
    (Apps.Registry.workload ~seed:62 "apache2" 50);
  check_int "one in five sampled" 10 sampler.Sweeper.Sampling.sampled;
  check_bool "fraction" true
    (abs_float (Sweeper.Sampling.sampled_fraction sampler -. 0.2) < 1e-9);
  check_int "no false alarms on benign traffic" 0 sampler.Sweeper.Sampling.alarms

(* ------------------------------------------------------------------ *)
(* Forward slicing                                                     *)
(* ------------------------------------------------------------------ *)

let test_forward_slice_from_input () =
  (* The forward slice from the malicious message must include the
     faulting instruction; one from an uninvolved computation must not. *)
  let src =
    {|
    char buf[128];
    int unrelated;
    void vuln(char *s) {
      char local[8];
      int i = 0;
      while (s[i] != 0) { local[i] = s[i]; i = i + 1; }
    }
    int main() {
      unrelated = 4321;
      int n = _recv(buf, 128);
      vuln(buf);
      return 0;
    }
  |}
  in
  let proc =
    Osim.Process.load ~aslr:true ~seed:63 (Minic.Driver.compile_app ~name:"t" src)
  in
  ignore (Osim.Process.run proc);
  ignore (Osim.Process.send_message proc (String.make 40 'Q'));
  let session = Sweeper.Slice.run_session proc in
  (match session.Sweeper.Slice.outcome with
  | Vm.Cpu.Faulted _ -> ()
  | _ -> Alcotest.fail "expected the replayed crash");
  let fw = Sweeper.Slice.forward_from_message session ~msg_id:0 in
  check_bool "input influences something" true (fw.Sweeper.Slice.fw_size > 10);
  check_bool "input reaches the copy loop" true
    (O.Int_set.exists
       (fun pc ->
         match Osim.Process.describe_addr proc pc with
         | s -> (
           match String.index_opt s '(' with
           | Some i -> String.length s > i + 5 && String.sub s (i + 1) 4 = "vuln"
           | None -> false))
       fw.Sweeper.Slice.fw_pcs);
  (* And the backward slice from the fault depends on the message. *)
  check_bool "backward slice blames the message" true
    (O.Int_set.mem 0 session.Sweeper.Slice.backward.Sweeper.Slice.s_msgs)

(* ------------------------------------------------------------------ *)
(* Community defense (mechanical)                                      *)
(* ------------------------------------------------------------------ *)

module Sh = Sweeper.Defense.Sharded

let community_exploit_for rng (_ : Sweeper.Defense.host) =
  let slide_guess = Random.State.int rng 4096 * 4096 in
  let exploit =
    Apps.Exploits.apache1_against
      ~system_guess:(0x4f770000 + slide_guess + 0x15a0)
      ~reqbuf_addr:0x08100000 ()
  in
  exploit.Apps.Exploits.x_messages

(* [rounds] worm rounds: every uninfected host is attacked once per
   round with a fresh address guess. *)
let attack_rounds c ~rng ~rounds =
  for _round = 1 to rounds do
    Sh.post_traffic c ~traffic:(community_exploit_for rng);
    ignore (Sh.run_round c)
  done;
  Sh.summary c

(* Every uninfected host still answers a trivial request. *)
let all_alive c =
  List.for_all
    (fun (h : Sweeper.Defense.host) ->
      h.Sweeper.Defense.h_infected
      ||
      match Osim.Server.handle h.Sweeper.Defense.h_server "noop" with
      | `Served _ | `Stopped -> true
      | `Filtered _ | `Crashed _ | `Infected _ -> false)
    (Sh.hosts c)

(* Events whose kind starts with [kind]: a kind may carry a detail after
   a colon ("antibody-rejected:<reason>"). *)
let count_events s kind =
  List.length
    (List.filter
       (fun (_, _, k) -> String.starts_with ~prefix:kind k)
       s.Sh.sm_events)

let test_defense_community_contains_worm () =
  let entry = Apps.Registry.find "apache1" in
  let c =
    Sh.create ~app:"apache1" ~compile:entry.r_compile ~n:10 ~producers:2
      ~seed:7000 ()
  in
  let s = attack_rounds c ~rng:(Random.State.make [| 99 |]) ~rounds:3 in
  check_int "nobody infected" 0 s.Sh.sm_infected_hosts;
  check_bool "antibody was produced" true
    (s.Sh.sm_first_antibody_vtime_ms <> None);
  check_bool "attacks were blocked" true (s.Sh.sm_blocked > 0);
  check_bool "community still serves" true (all_alive c)

let test_defense_verification_path () =
  (* Consumers that distrust producers replay the bundle's exploit in a
     sandbox before deploying it; a genuinely analyzed antibody passes. *)
  let entry = Apps.Registry.find "apache1" in
  let c =
    Sh.create ~verify_before_deploy:true ~app:"apache1"
      ~compile:entry.r_compile ~n:4 ~producers:1 ~seed:7100 ()
  in
  let s = attack_rounds c ~rng:(Random.State.make [| 7 |]) ~rounds:1 in
  check_bool "verified antibody accepted" true
    (s.Sh.sm_first_antibody_vtime_ms <> None);
  check_int "nothing rejected" 0 (count_events s "antibody-rejected")

let test_defense_signature_refinement () =
  (* Wave 1: canonical exploit -> analysis, exact signature. Wave 2: a
     polymorphic variant evades the exact signature, a VSEF blocks it, and
     the confirmed sample refines the signature into a token signature.
     Wave 3: a third, fresh variant is now filtered at the proxy. *)
  let entry = Apps.Registry.find "squid" in
  let c =
    Sh.create ~app:"squid" ~compile:entry.r_compile ~n:1 ~producers:1
      ~seed:7300 ()
  in
  (* Waves 0 and 1 differ in payload characters, so the common tokens are
     the structural parts ("GET ftp://", the host suffix); wave 2 then
     varies only the length and must match the token signature. *)
  let wave n =
    (List.nth (Apps.Exploits.variants ~system_guess:1 ~cmd_ptr:1 "squid") n)
      .Apps.Exploits.x_messages
  in
  let wave = function 0 -> wave 0 | 1 -> wave 2 | _ -> wave 1 in
  let run_wave n =
    Sh.post_traffic c ~traffic:(fun _ -> wave n);
    ignore (Sh.run_round c);
    Sh.summary c
  in
  let s = run_wave 0 in
  check_int "wave 1 analyzed" 1 s.Sh.sm_analyses;
  check_int "antibody published" 1 (count_events s "antibody-published");
  let s = run_wave 1 in
  check_int "wave 2 VSEF-blocked" 1 (count_events s "vetoed");
  (* The second confirmed sample republished a token signature. *)
  let published =
    List.find_map
      (fun (m : Obs.Metrics.sample) ->
        match m.Obs.Metrics.s_value with
        | Obs.Metrics.Sample_counter n
          when m.Obs.Metrics.s_name = "sweeper_antibodies_published_total" ->
          Some n
        | _ -> None)
      (Sh.merged_metrics c)
  in
  check_bool "republished" true (Option.value ~default:0 published >= 2);
  let s = run_wave 2 in
  check_int "wave 3 never reached the process" 1 (count_events s "vetoed");
  check_int "wave 3 filtered at the proxy" 1
    (count_events s "filtered:antibody-squid");
  check_int "no infection" 0 s.Sh.sm_infections

let test_defense_consumer_only_community_survives_detection () =
  (* With zero producers nobody can make antibodies, but lightweight
     monitoring + rollback still keeps consumers alive (DoS, not takeover). *)
  let entry = Apps.Registry.find "apache1" in
  let c =
    Sh.create ~app:"apache1" ~compile:entry.r_compile ~n:5 ~producers:0
      ~seed:7200 ()
  in
  let s = attack_rounds c ~rng:(Random.State.make [| 13 |]) ~rounds:2 in
  check_bool "no antibody without producers" true
    (s.Sh.sm_first_antibody_vtime_ms = None);
  check_bool "crashes were absorbed" true (s.Sh.sm_crashes > 0);
  check_bool "consumers recovered" true (all_alive c)

(* ------------------------------------------------------------------ *)
(* Pipeline driver regressions                                         *)
(* ------------------------------------------------------------------ *)

let test_pipeline_survives_empty_checkpoint_ring () =
  (* Regression: with the checkpoint ring emptied (every entry purged, as
     after an aggressive quarantine), the driver must fall back to the
     server's origin checkpoint instead of crashing on [Option.get]. *)
  let _, server, fault = crash_server ~seed:4242 "apache1" in
  Osim.Checkpoint.purge_after server.Osim.Server.ring ~cursor:(-1);
  check_int "ring emptied" 0 (Osim.Checkpoint.count server.Osim.Server.ring);
  let r = O.handle_attack ~app:"apache1" server fault in
  check_bool "antibody still produced" true
    (r.O.a_antibody.Sweeper.Antibody.ab_vsefs <> []);
  check_bool "exploit input still isolated" true (r.O.a_isolation <> []);
  match Osim.Server.handle server "noop" with
  | `Served _ | `Stopped -> ()
  | `Filtered _ | `Crashed _ | `Infected _ ->
    Alcotest.fail "server not serviceable after origin-fallback recovery"

let test_reduced_stage_pipeline () =
  (* A policy-trimmed pipeline (no taint, no slicing) must still produce a
     well-formed report: skipped stages contribute neutral products. *)
  let _, server, fault = crash_server ~seed:4243 "apache1" in
  let r =
    O.handle_attack ~app:"apache1"
      ~stages:[ O.coredump_stage; O.membug_stage; O.isolation_stage ]
      server fault
  in
  check_bool "taint neutral" true
    (r.O.a_taint.Sweeper.Taint.t_verdict = Sweeper.Taint.No_fault);
  check_bool "slice vacuously verifies" true r.O.a_slice_verifies;
  check_bool "exploit input isolated" true (r.O.a_isolation <> []);
  check_bool "vsefs produced" true (r.O.a_vsefs <> []);
  check_int "one timing per stage run" 3 (List.length r.O.a_timings)

(* ------------------------------------------------------------------ *)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sweeper"
    [
      ( "coredump",
        [
          Alcotest.test_case "apache1" `Quick test_coredump_apache1;
          Alcotest.test_case "apache2" `Quick test_coredump_apache2;
          Alcotest.test_case "cvs" `Quick test_coredump_cvs;
          Alcotest.test_case "squid" `Quick test_coredump_squid;
        ] );
      ( "membug",
        [
          Alcotest.test_case "apache1" `Quick test_membug_apache1;
          Alcotest.test_case "apache2" `Quick test_membug_apache2;
          Alcotest.test_case "cvs" `Quick test_membug_cvs;
          Alcotest.test_case "squid" `Quick test_membug_squid;
        ] );
      ( "taint",
        [
          Alcotest.test_case "apache1 tainted ret" `Quick test_taint_apache1;
          Alcotest.test_case "squid tainted store" `Quick test_taint_squid;
          Alcotest.test_case "apache2 untainted" `Quick test_taint_apache2_untainted;
          Alcotest.test_case "propagation unit" `Quick test_taint_propagation_unit;
        ] );
      ( "slice",
        [
          Alcotest.test_case "verifies all apps" `Quick test_slice_verifies_all_apps;
          Alcotest.test_case "excludes unrelated" `Quick test_slice_excludes_unrelated;
          Alcotest.test_case "includes data chain" `Quick test_slice_includes_data_chain;
          Alcotest.test_case "stack exhaustion reaches the prologue" `Quick
            test_slice_stack_exhaustion;
          Alcotest.test_case "message attribution" `Quick test_slice_message_attribution;
        ] );
      ( "signature",
        [
          Alcotest.test_case "exact" `Quick test_signature_exact;
          Alcotest.test_case "tokens" `Quick test_signature_tokens;
          Alcotest.test_case "token order" `Quick test_signature_tokens_ordered;
          qt prop_tokens_match_their_variants;
        ] );
      ( "vsef",
        [
          Alcotest.test_case "blocks apache1" `Quick (test_vsef_blocks "apache1");
          Alcotest.test_case "blocks apache2" `Quick (test_vsef_blocks "apache2");
          Alcotest.test_case "blocks cvs" `Quick (test_vsef_blocks "cvs");
          Alcotest.test_case "blocks squid" `Quick (test_vsef_blocks "squid");
          Alcotest.test_case "no false positives apache1" `Quick
            (test_vsef_no_false_positives "apache1");
          Alcotest.test_case "no false positives squid" `Quick
            (test_vsef_no_false_positives "squid");
          Alcotest.test_case "footprint small" `Quick test_vsef_footprint_small;
          Alcotest.test_case "catches polymorphic variants" `Quick
            test_vsef_catches_polymorphic_variants;
        ] );
      ( "antibody",
        [
          Alcotest.test_case "stages" `Quick test_antibody_stages;
          Alcotest.test_case "verification" `Quick test_antibody_verification;
          Alcotest.test_case "bogus rejected" `Quick test_antibody_bogus_does_not_verify;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "state and service preserved" `Quick
            test_recovery_preserves_state_and_service;
          Alcotest.test_case "no duplicate responses" `Quick
            test_recovery_no_duplicate_responses;
          Alcotest.test_case "full pipeline outcomes" `Quick
            test_full_pipeline_outcomes;
          Alcotest.test_case "re-attack blocked" `Quick
            test_reattack_blocked_after_analysis;
          Alcotest.test_case "frame-pointer corruption variant" `Quick
            test_frame_pointer_corruption_variant;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "survives empty checkpoint ring" `Quick
            test_pipeline_survives_empty_checkpoint_ring;
          Alcotest.test_case "reduced stage list" `Quick
            test_reduced_stage_pipeline;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "catches successful hijack" `Quick
            test_sampling_catches_successful_hijack;
          Alcotest.test_case "disabled misses" `Quick
            test_sampling_unsampled_messages_miss;
          Alcotest.test_case "rate accounting" `Quick
            test_sampling_rate_and_overhead_accounting;
        ] );
      ( "forward-slice",
        [
          Alcotest.test_case "from input" `Quick test_forward_slice_from_input;
        ] );
      ( "defense",
        [
          Alcotest.test_case "community contains worm" `Quick
            test_defense_community_contains_worm;
          Alcotest.test_case "verification path" `Quick
            test_defense_verification_path;
          Alcotest.test_case "signature refinement" `Quick
            test_defense_signature_refinement;
          Alcotest.test_case "consumer-only survives" `Quick
            test_defense_consumer_only_community_survives_detection;
        ] );
    ]
