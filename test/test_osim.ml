(* Tests for the OS simulation layer: the network log (filters, replay,
   quarantine), processes and syscalls, checkpoints/rollback, and the
   serving harness. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_str = check Alcotest.string

(* ------------------------------------------------------------------ *)
(* Netlog                                                              *)
(* ------------------------------------------------------------------ *)

let test_netlog_arrive_and_consume () =
  let t = Osim.Netlog.create () in
  check_bool "first id" true (Osim.Netlog.arrive t "a" = Ok 0);
  check_bool "second id" true (Osim.Netlog.arrive t "b" = Ok 1);
  (match Osim.Netlog.next_for_recv t with
  | Some m -> check_str "fifo order" "a" m.Osim.Netlog.m_payload
  | None -> Alcotest.fail "expected message");
  check_int "cursor advanced" 1 (Osim.Netlog.cursor t);
  ignore (Osim.Netlog.next_for_recv t);
  check_bool "drained" true (Osim.Netlog.next_for_recv t = None)

let test_netlog_filters () =
  let t = Osim.Netlog.create () in
  Osim.Netlog.add_filter t ~name:"block-x" (fun p -> String.length p > 0 && p.[0] = 'x');
  check_bool "filtered" true (Osim.Netlog.arrive t "xyz" = Error "block-x");
  check_bool "passes" true (Osim.Netlog.arrive t "abc" = Ok 0);
  check_int "one filter" 1 (Osim.Netlog.filter_count t);
  Osim.Netlog.remove_filter t ~name:"block-x";
  check_bool "after removal" true (Osim.Netlog.arrive t "xyz" = Ok 1)

let test_netlog_replay_and_skip () =
  let t = Osim.Netlog.create () in
  List.iter (fun p -> ignore (Osim.Netlog.arrive t p)) [ "m0"; "m1"; "m2"; "m3" ];
  (* Consume everything live. *)
  while Osim.Netlog.next_for_recv t <> None do () done;
  (* Replay from 0 up to 3, skipping message 1. *)
  Osim.Netlog.set_cursor t 0;
  Osim.Netlog.set_mode t
    (Osim.Netlog.Replay { upto = 3; skip = Osim.Netlog.Int_set.singleton 1 });
  let seen = ref [] in
  let rec drain () =
    match Osim.Netlog.next_for_recv t with
    | Some m ->
      seen := m.Osim.Netlog.m_payload :: !seen;
      drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list string) "replayed without skipped" [ "m0"; "m2" ]
    (List.rev !seen);
  (* Back to live: message 3 is still there. *)
  Osim.Netlog.set_mode t Osim.Netlog.Live;
  match Osim.Netlog.next_for_recv t with
  | Some m -> check_str "live resumes after replay window" "m3" m.Osim.Netlog.m_payload
  | None -> Alcotest.fail "expected m3"

let test_netlog_quarantine_persists () =
  let t = Osim.Netlog.create () in
  List.iter (fun p -> ignore (Osim.Netlog.arrive t p)) [ "good"; "evil"; "good2" ];
  while Osim.Netlog.next_for_recv t <> None do () done;
  Osim.Netlog.quarantine t [ 1 ];
  Osim.Netlog.set_cursor t 0;
  Osim.Netlog.set_mode t
    (Osim.Netlog.Replay { upto = 3; skip = Osim.Netlog.Int_set.empty });
  let seen = ref [] in
  let rec drain () =
    match Osim.Netlog.next_for_recv t with
    | Some m -> seen := m.Osim.Netlog.m_payload :: !seen; drain ()
    | None -> ()
  in
  drain ();
  check Alcotest.(list string) "quarantined never re-delivered"
    [ "good"; "good2" ] (List.rev !seen)

let test_netlog_consumed_since () =
  let t = Osim.Netlog.create () in
  List.iter (fun p -> ignore (Osim.Netlog.arrive t p)) [ "a"; "b"; "c" ];
  ignore (Osim.Netlog.next_for_recv t);
  ignore (Osim.Netlog.next_for_recv t);
  let since = Osim.Netlog.consumed_since t 1 in
  check_int "window size" 1 (List.length since);
  check_str "window content" "b" (List.hd since).Osim.Netlog.m_payload

(* ------------------------------------------------------------------ *)
(* Process + syscalls                                                  *)
(* ------------------------------------------------------------------ *)

(* An echo server in MiniC for process-level tests. *)
let echo_src =
  {|
  char buf[256];
  int main() {
    while (1) {
      int n = _recv(buf, 256);
      if (n < 0) { _exit(1); }
      _send(buf, n);
    }
    return 0;
  }
|}

let echo_proc ?(aslr = false) ?(seed = 1) () =
  Osim.Process.load ~aslr ~seed (Minic.Driver.compile_app ~name:"echo" echo_src)

let test_process_blocks_without_input () =
  let p = echo_proc () in
  check_bool "blocked" true (Osim.Process.run p = Vm.Cpu.Blocked)

let test_process_echo_roundtrip () =
  let p = echo_proc () in
  ignore (Osim.Process.run p);
  ignore (Osim.Process.send_message p "ping");
  ignore (Osim.Process.run p);
  (match Osim.Process.committed_outputs p with
  | [ (0, "ping") ] -> ()
  | _ -> Alcotest.fail "expected one echoed response");
  ignore (Osim.Process.send_message p "pong");
  ignore (Osim.Process.run p);
  check_int "two responses" 2 (List.length (Osim.Process.committed_outputs p))

let test_process_output_commit_suppression () =
  let p = echo_proc () in
  ignore (Osim.Process.run p);
  ignore (Osim.Process.send_message p "hello");
  ignore (Osim.Process.run p);
  (* Replay the same message: the response must not be duplicated. *)
  Osim.Netlog.set_cursor p.Osim.Process.net 0;
  Osim.Netlog.set_mode p.Osim.Process.net
    (Osim.Netlog.Replay { upto = 1; skip = Osim.Netlog.Int_set.empty });
  ignore (Osim.Process.run p);
  check_int "no duplicate response" 1
    (List.length (Osim.Process.committed_outputs p))

let test_process_sandbox_drops_outputs () =
  let p = echo_proc () in
  ignore (Osim.Process.run p);
  p.Osim.Process.sandbox <- true;
  ignore (Osim.Process.send_message p "quiet");
  ignore (Osim.Process.run p);
  check_int "sandboxed output dropped" 0
    (List.length (Osim.Process.committed_outputs p))

let test_process_flashback_random () =
  (* random results are logged; a re-execution from the log start returns
     the same values. *)
  let src =
    {|
    char buf[8];
    int r1;
    int r2;
    int main() {
      int n = _recv(buf, 8);
      r1 = _random();
      r2 = _random();
      n = _recv(buf, 8);
      return 0;
    }
  |}
  in
  let p = Osim.Process.load ~aslr:false ~seed:9 (Minic.Driver.compile_app ~name:"r" src) in
  ignore (Osim.Process.run p);
  ignore (Osim.Process.send_message p "go");
  ignore (Osim.Process.run p);
  let addr_r1 = Hashtbl.find p.Osim.Process.data_symbols "r1" in
  let addr_r2 = Hashtbl.find p.Osim.Process.data_symbols "r2" in
  let v1 = Vm.Memory.load_word p.Osim.Process.mem addr_r1 in
  let v2 = Vm.Memory.load_word p.Osim.Process.mem addr_r2 in
  check_bool "two distinct randoms" true (v1 <> v2);
  (* Replay: rewind the syscall-result log and the message cursor. *)
  p.Osim.Process.sysres_pos <- 0;
  Osim.Netlog.set_cursor p.Osim.Process.net 0;
  Osim.Netlog.set_mode p.Osim.Process.net
    (Osim.Netlog.Replay { upto = 1; skip = Osim.Netlog.Int_set.empty });
  Vm.Memory.store_word p.Osim.Process.mem addr_r1 0;
  Vm.Memory.store_word p.Osim.Process.mem addr_r2 0;
  p.Osim.Process.cpu.Vm.Cpu.pc <- Vm.Asm.symbol p.Osim.Process.app_image "_start";
  Vm.Cpu.set_reg p.Osim.Process.cpu Vm.Isa.SP
    (p.Osim.Process.layout.Vm.Layout.stack_top - 16);
  p.Osim.Process.cpu.Vm.Cpu.halted <- false;
  ignore (Osim.Process.run p);
  check_int "replayed r1 deterministic" v1
    (Vm.Memory.load_word p.Osim.Process.mem addr_r1);
  check_int "replayed r2 deterministic" v2
    (Vm.Memory.load_word p.Osim.Process.mem addr_r2)

let test_process_exec_marks_compromise () =
  let src = {| int main() { _exec("evil"); return 0; } |} in
  let p = Osim.Process.load ~aslr:false ~seed:1 (Minic.Driver.compile_app ~name:"x" src) in
  ignore (Osim.Process.run p);
  check_bool "compromised" true (p.Osim.Process.compromised = Some "evil")

let test_process_console_log () =
  let src = {| int main() { _log("starting up"); return 0; } |} in
  let p = Osim.Process.load ~aslr:false ~seed:1 (Minic.Driver.compile_app ~name:"x" src) in
  ignore (Osim.Process.run p);
  check Alcotest.(list string) "console" [ "starting up" ] p.Osim.Process.console

let test_process_aslr_moves_libc () =
  let p1 = echo_proc ~aslr:true ~seed:1 () in
  let p2 = echo_proc ~aslr:true ~seed:2 () in
  check_bool "system address differs" true
    (Osim.Process.system_addr p1 <> Osim.Process.system_addr p2);
  let p3 = echo_proc ~aslr:false () in
  let p4 = echo_proc ~aslr:false ~seed:5 () in
  check_int "no-aslr deterministic" (Osim.Process.system_addr p3)
    (Osim.Process.system_addr p4)

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let counter_src =
  {|
  char buf[64];
  int count;
  char *scratch;
  int main() {
    count = 0;
    scratch = malloc(16);
    while (1) {
      int n = _recv(buf, 64);
      if (n < 0) { _exit(1); }
      count = count + 1;
      scratch[0] = (char)count;
      _send(buf, n);
    }
    return 0;
  }
|}

let counter_proc () =
  Osim.Process.load ~aslr:false ~seed:1
    (Minic.Driver.compile_app ~name:"counter" counter_src)

let count_of p =
  Vm.Memory.load_word p.Osim.Process.mem
    (Hashtbl.find p.Osim.Process.data_symbols "count")

let test_checkpoint_rollback_state () =
  let p = counter_proc () in
  ignore (Osim.Process.run p);
  ignore (Osim.Process.send_message p "a");
  ignore (Osim.Process.run p);
  let ck = Osim.Checkpoint.take p in
  ignore (Osim.Process.send_message p "b");
  ignore (Osim.Process.send_message p "c");
  ignore (Osim.Process.run p);
  check_int "count advanced" 3 (count_of p);
  Osim.Checkpoint.rollback p ck;
  check_int "count restored" 1 (count_of p);
  check_int "net cursor restored" 1 (Osim.Netlog.cursor p.Osim.Process.net)

let test_checkpoint_rollback_repeatable () =
  let p = counter_proc () in
  ignore (Osim.Process.run p);
  let ck = Osim.Checkpoint.take p in
  for round = 1 to 3 do
    ignore (Osim.Process.send_message p (string_of_int round));
    ignore (Osim.Process.run p);
    check_bool "count moved" true (count_of p >= 1);
    Osim.Checkpoint.rollback p ck;
    check_int "count back to zero" 0 (count_of p)
  done

let test_checkpoint_heap_rollback () =
  let p = counter_proc () in
  ignore (Osim.Process.run p);
  let ck = Osim.Checkpoint.take p in
  let brk_before = p.Osim.Process.layout.Vm.Layout.heap_brk in
  (* Allocations after the checkpoint... *)
  ignore (Vm.Alloc.malloc p.Osim.Process.mem p.Osim.Process.layout 4096);
  Osim.Checkpoint.rollback p ck;
  check_int "heap brk restored" brk_before p.Osim.Process.layout.Vm.Layout.heap_brk;
  (* ...and the allocator metadata is back too: same chunk again. *)
  let q1 = Vm.Alloc.malloc p.Osim.Process.mem p.Osim.Process.layout 4096 in
  Osim.Checkpoint.rollback p ck;
  let q2 = Vm.Alloc.malloc p.Osim.Process.mem p.Osim.Process.layout 4096 in
  check_bool "deterministic allocation after rollback" true (q1 = q2)

let test_checkpoint_ring () =
  let ring = Osim.Checkpoint.create_ring ~capacity:3 () in
  let p = counter_proc () in
  ignore (Osim.Process.run p);
  for i = 1 to 5 do
    ignore (Osim.Process.send_message p (string_of_int i));
    ignore (Osim.Process.run p);
    Osim.Checkpoint.add ring (Osim.Checkpoint.take p)
  done;
  check_int "bounded" 3 (Osim.Checkpoint.count ring);
  (match Osim.Checkpoint.latest ring with
  | Some ck -> check_int "latest has all messages" 5 ck.Osim.Checkpoint.ck_net_cursor
  | None -> Alcotest.fail "expected latest");
  match Osim.Checkpoint.before_message ring ~msg_index:3 with
  | Some ck ->
    check_bool "finds checkpoint before message" true
      (ck.Osim.Checkpoint.ck_net_cursor <= 3)
  | None -> Alcotest.fail "expected checkpoint before message 3"

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

let test_server_serves_and_checkpoints () =
  let p = counter_proc () in
  let config = { Osim.Server.checkpoint_interval_ms = 1; keep_checkpoints = 5 } in
  let server = Osim.Server.create ~config p in
  ignore (Osim.Server.run server);
  for i = 1 to 400 do
    match Osim.Server.handle server (string_of_int i) with
    | `Served _ -> ()
    | _ -> Alcotest.fail "expected served"
  done;
  check_bool "took periodic checkpoints" true (Osim.Server.checkpoints_taken server > 1);
  check_int "ring bounded" 5 (Osim.Checkpoint.count server.Osim.Server.ring)

let test_server_no_checkpointing_when_disabled () =
  let p = counter_proc () in
  let config = { Osim.Server.checkpoint_interval_ms = 0; keep_checkpoints = 5 } in
  let server = Osim.Server.create ~config p in
  ignore (Osim.Server.run server);
  for i = 1 to 20 do
    ignore (Osim.Server.handle server (string_of_int i))
  done;
  check_int "only the initial checkpoint" 1 (Osim.Server.checkpoints_taken server)

let test_server_filtered_messages () =
  let p = counter_proc () in
  let server = Osim.Server.create p in
  ignore (Osim.Server.run server);
  Osim.Netlog.add_filter p.Osim.Process.net ~name:"no-evil" (fun s -> s = "evil");
  (match Osim.Server.handle server "evil" with
  | `Filtered "no-evil" -> ()
  | _ -> Alcotest.fail "expected filtered");
  match Osim.Server.handle server "fine" with
  | `Served _ -> ()
  | _ -> Alcotest.fail "expected served"

(* ------------------------------------------------------------------ *)
(* Additional corners                                                  *)
(* ------------------------------------------------------------------ *)

let test_recv_truncates_long_messages () =
  (* The echo server's buffer is 256 bytes; recv must NUL-terminate within
     it and report the truncated length. *)
  let p = echo_proc () in
  ignore (Osim.Process.run p);
  ignore (Osim.Process.send_message p (String.make 1000 'x'));
  ignore (Osim.Process.run p);
  match Osim.Process.committed_outputs p with
  | [ (0, data) ] -> check_int "truncated to buffer - 1" 255 (String.length data)
  | _ -> Alcotest.fail "expected one truncated response"

let test_processes_are_isolated () =
  let p1 = echo_proc ~seed:1 () in
  let p2 = echo_proc ~seed:2 () in
  ignore (Osim.Process.run p1);
  ignore (Osim.Process.run p2);
  ignore (Osim.Process.send_message p1 "only-p1");
  ignore (Osim.Process.run p1);
  check_int "p1 answered" 1 (List.length (Osim.Process.committed_outputs p1));
  check_int "p2 untouched" 0 (List.length (Osim.Process.committed_outputs p2))

let test_checkpoint_purge_after () =
  let ring = Osim.Checkpoint.create_ring ~capacity:10 () in
  let p = counter_proc () in
  ignore (Osim.Process.run p);
  for i = 1 to 4 do
    ignore (Osim.Process.send_message p (string_of_int i));
    ignore (Osim.Process.run p);
    Osim.Checkpoint.add ring (Osim.Checkpoint.take p)
  done;
  check_int "four checkpoints" 4 (Osim.Checkpoint.count ring);
  Osim.Checkpoint.purge_after ring ~cursor:2;
  check_int "later ones purged" 2 (Osim.Checkpoint.count ring);
  List.iter
    (fun i ->
      ignore i;
      match Osim.Checkpoint.latest ring with
      | Some ck -> check_bool "survivors predate cursor" true
          (ck.Osim.Checkpoint.ck_net_cursor <= 2)
      | None -> Alcotest.fail "ring emptied")
    [ 1 ]

let test_rollback_hooks_fire () =
  let p = counter_proc () in
  ignore (Osim.Process.run p);
  let ck = Osim.Checkpoint.take p in
  let fired = ref 0 in
  let id = Osim.Process.add_rollback_hook p (fun () -> incr fired) in
  Osim.Checkpoint.rollback p ck;
  Osim.Checkpoint.rollback p ck;
  check_int "hook ran per rollback" 2 !fired;
  Osim.Process.remove_rollback_hook p id;
  Osim.Checkpoint.rollback p ck;
  check_int "removed hook silent" 2 !fired

let test_netlog_message_lookup_bounds () =
  let t = Osim.Netlog.create () in
  ignore (Osim.Netlog.arrive t "zero");
  check Alcotest.string "lookup" "zero" (Osim.Netlog.message t 0).Osim.Netlog.m_payload;
  Alcotest.check_raises "negative id" (Invalid_argument "Netlog.message")
    (fun () -> ignore (Osim.Netlog.message t (-1)));
  Alcotest.check_raises "out of range" (Invalid_argument "Netlog.message")
    (fun () -> ignore (Osim.Netlog.message t 5))

(* ------------------------------------------------------------------ *)
(* Templates and instances                                             *)
(* ------------------------------------------------------------------ *)

(* Boot a process to its first input block, then feed it [reqs] one at a
   time, running it to the next block after each. *)
let boot p =
  ignore (Osim.Process.run p);
  p

let serve p reqs =
  List.iter
    (fun r ->
      ignore (Osim.Process.send_message p r);
      ignore (Osim.Process.run p))
    reqs

(* Block, fast and slow retirement, then icount. *)
let tiers p =
  let c = p.Osim.Process.cpu in
  Vm.Cpu.[ c.block_retired; c.fast_retired; c.slow_retired; c.icount ]

let check_tiers msg expected p =
  check Alcotest.(list int) msg (tiers expected) (tiers p)

(* [instantiate] is documented to behave exactly like [load] with the
   template's parameters: serve the same stream through both and compare
   everything observable, tier accounting included. *)
let test_instantiate_matches_load () =
  List.iter
    (fun (e : Apps.Registry.entry) ->
      let compiled = e.r_compile () in
      let key = e.r_key in
      let reqs = Apps.Registry.workload ~seed:5 key 50 in
      let loaded = boot (Osim.Process.load ~aslr:true ~seed:11 compiled) in
      let inst =
        boot
          (Osim.Process.instantiate
             (Osim.Process.template ~aslr:true ~seed:11 compiled))
      in
      serve loaded reqs;
      serve inst reqs;
      let cl = loaded.Osim.Process.cpu and ci = inst.Osim.Process.cpu in
      check Alcotest.(list (pair int string)) (key ^ " outputs")
        (Osim.Process.committed_outputs loaded)
        (Osim.Process.committed_outputs inst);
      check_int (key ^ " served all") 50
        (List.length (Osim.Process.committed_outputs inst));
      check Alcotest.(array int) (key ^ " registers") cl.Vm.Cpu.regs
        ci.Vm.Cpu.regs;
      check_int (key ^ " pc") cl.Vm.Cpu.pc ci.Vm.Cpu.pc;
      check_tiers (key ^ " block/fast/slow/icount") loaded inst;
      check_bool (key ^ " ran on blocks") true (ci.Vm.Cpu.block_retired > 0);
      check_int (key ^ " mapped pages")
        (Vm.Memory.mapped_pages loaded.Osim.Process.mem)
        (Vm.Memory.mapped_pages inst.Osim.Process.mem))
    Apps.Registry.all

(* Sibling instances share one template's compiled blocks but must keep
   separate block state: a hook, an invalidation, or an elision trip on
   one never demotes a block on another. The control is a separately
   loaded process (its own compiled blocks), so it shows what an
   undisturbed host retires. *)
let test_instances_keep_separate_block_state () =
  let compiled = (Apps.Registry.find "apache1").r_compile () in
  let tpl = Osim.Process.template ~aslr:false ~seed:3 compiled in
  let a = boot (Osim.Process.instantiate tpl) in
  let b = boot (Osim.Process.instantiate tpl) in
  let ctl = boot (Osim.Process.load ~aslr:false ~seed:3 compiled) in
  let stream seed = Apps.Registry.workload ~seed "apache1" 20 in
  let hot = Vm.Asm.symbol a.Osim.Process.lib_image "strlen" in
  let block_of p = p.Osim.Process.cpu.Vm.Cpu.block_retired in
  (* A pc hook inside a hot block demotes that block on A only. *)
  let fired = ref 0 in
  let id =
    Vm.Cpu.add_pc_hook a.Osim.Process.cpu ~pc:hot (fun _ -> incr fired)
  in
  let c = boot (Osim.Process.instantiate tpl) in
  let reqs = stream 1 in
  List.iter (fun p -> serve p reqs) [ a; b; c; ctl ];
  check_bool "hooked block is hot" true (!fired > 0);
  check_int "A executes the same stream" ctl.Osim.Process.cpu.Vm.Cpu.icount
    a.Osim.Process.cpu.Vm.Cpu.icount;
  check_bool "hooked block demoted on A" true (block_of a < block_of ctl);
  check_tiers "B unaffected by A's hook" ctl b;
  check_tiers "instance created after the hook starts all-runnable" ctl c;
  (* Removing the hook re-promotes the block on A. *)
  Vm.Cpu.remove_hook a.Osim.Process.cpu id;
  let a0 = block_of a and ctl0 = block_of ctl in
  let reqs = stream 2 in
  List.iter (fun p -> serve p reqs) [ a; b; ctl ];
  check_int "unhooked block re-promoted on A" (block_of ctl - ctl0)
    (block_of a - a0);
  check_tiers "B still unaffected" ctl b;
  (* Invalidation and an elision trip on A stay on A. *)
  Vm.Cpu.invalidate_block a.Osim.Process.cpu ~pc:hot;
  Vm.Cpu.elision_trip a.Osim.Process.cpu
    ~pc:(Vm.Asm.symbol a.Osim.Process.lib_image "memcpy");
  (* A hook attach/detach on B re-derives B's runnable flags, which must
     come from B's own validity, not A's. *)
  Vm.Cpu.remove_hook b.Osim.Process.cpu
    (Vm.Cpu.add_pc_hook b.Osim.Process.cpu ~pc:hot ignore);
  let a0 = block_of a and ctl0 = block_of ctl in
  let reqs = stream 3 in
  List.iter (fun p -> serve p reqs) [ a; b; ctl ];
  check_bool "invalidated block demoted on A" true
    (block_of a - a0 < block_of ctl - ctl0);
  check_int "trip counted on A" 1 a.Osim.Process.cpu.Vm.Cpu.elision_trips;
  check_int "no trip on B" 0 b.Osim.Process.cpu.Vm.Cpu.elision_trips;
  check_tiers "B unaffected by A's invalidation and trip" ctl b

(* Host creation is a COW clone plus a fresh CPU over the template's
   compiled blocks: its minor-heap allocation is a small constant per
   host, the same at 10 hosts as at 1000 (a deterministic count, unlike
   wall-clock). Recompiling the blocks per host would allocate ~75k. *)
let test_instantiate_allocation_bound () =
  let tpl =
    Osim.Process.template ~aslr:true ~seed:3
      ((Apps.Registry.find "apache1").r_compile ())
  in
  let per_host n =
    let before = Gc.minor_words () in
    let hosts = Array.init n (fun _ -> Osim.Process.instantiate tpl) in
    let words = Gc.minor_words () -. before in
    ignore (Sys.opaque_identity hosts);
    words /. float_of_int n
  in
  List.iter
    (fun n ->
      let w = per_host n in
      if w > 4096. then
        Alcotest.failf "instantiate allocates %.0f minor words/host at n=%d"
          w n)
    [ 10; 1000 ]

let () =
  Alcotest.run "osim"
    [
      ( "netlog",
        [
          Alcotest.test_case "arrive/consume" `Quick test_netlog_arrive_and_consume;
          Alcotest.test_case "filters" `Quick test_netlog_filters;
          Alcotest.test_case "replay/skip" `Quick test_netlog_replay_and_skip;
          Alcotest.test_case "quarantine" `Quick test_netlog_quarantine_persists;
          Alcotest.test_case "consumed_since" `Quick test_netlog_consumed_since;
        ] );
      ( "process",
        [
          Alcotest.test_case "blocks without input" `Quick
            test_process_blocks_without_input;
          Alcotest.test_case "echo roundtrip" `Quick test_process_echo_roundtrip;
          Alcotest.test_case "output commit" `Quick
            test_process_output_commit_suppression;
          Alcotest.test_case "sandbox" `Quick test_process_sandbox_drops_outputs;
          Alcotest.test_case "flashback random" `Quick test_process_flashback_random;
          Alcotest.test_case "exec = compromise" `Quick
            test_process_exec_marks_compromise;
          Alcotest.test_case "console log" `Quick test_process_console_log;
          Alcotest.test_case "aslr moves libc" `Quick test_process_aslr_moves_libc;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "rollback state" `Quick test_checkpoint_rollback_state;
          Alcotest.test_case "rollback repeatable" `Quick
            test_checkpoint_rollback_repeatable;
          Alcotest.test_case "heap rollback" `Quick test_checkpoint_heap_rollback;
          Alcotest.test_case "ring" `Quick test_checkpoint_ring;
        ] );
      ( "server",
        [
          Alcotest.test_case "serves and checkpoints" `Quick
            test_server_serves_and_checkpoints;
          Alcotest.test_case "checkpointing disabled" `Quick
            test_server_no_checkpointing_when_disabled;
          Alcotest.test_case "filtered messages" `Quick test_server_filtered_messages;
        ] );
      ( "corners",
        [
          Alcotest.test_case "recv truncation" `Quick test_recv_truncates_long_messages;
          Alcotest.test_case "process isolation" `Quick test_processes_are_isolated;
          Alcotest.test_case "purge_after" `Quick test_checkpoint_purge_after;
          Alcotest.test_case "rollback hooks" `Quick test_rollback_hooks_fire;
          Alcotest.test_case "message lookup bounds" `Quick
            test_netlog_message_lookup_bounds;
        ] );
      ( "template",
        [
          Alcotest.test_case "instantiate == load" `Quick
            test_instantiate_matches_load;
          Alcotest.test_case "instances keep separate block state" `Quick
            test_instances_keep_separate_block_state;
          Alcotest.test_case "instantiate allocation bound" `Quick
            test_instantiate_allocation_bound;
        ] );
    ]
