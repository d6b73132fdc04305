(* Random MiniC workloads shared by the differential suites (taint engines,
   slicer paths, memory-bug detector paths): one fixed program shape whose
   knobs range over clean runs, benign faults, smashed returns, exec
   hijacks, and heap misuse. *)

(* Deterministic qcheck runs by default; QCHECK_SEED overrides. (The
   stock QCheck_alcotest default self-seeds from the clock, which makes
   failures unreproducible — so the seed is pinned here instead.) *)
let qcheck_rand () =
  let seed =
    match Sys.getenv_opt "QCHECK_SEED" with
    | Some s -> ( try int_of_string (String.trim s) with _ -> 0x5EED)
    | None -> 0x5EED
  in
  Random.State.make [| seed |]

(* A program recipe: every field is a knob on one fixed program shape, so
   generated sources always compile, while the dynamic behaviour ranges
   over clean runs, benign faults, smashed returns, exec hijacks, and heap
   misuse. *)
type recipe = {
  cap : int;        (* receive buffer size *)
  reps : int;       (* outer loop repetitions *)
  stride : int;     (* read offset in the copy loop *)
  addk : int;       (* constant folded into copied bytes *)
  use_words : bool; (* mix in word-sized loads through an int* view *)
  vuln : int;       (* 0 = clean, 1 = stack smash, 2 = exec sink *)
  over : int;       (* how far past the 16-byte local the smash reaches *)
  msg_len : int;    (* attack message length *)
  msg_seed : int;   (* attack message contents *)
  heap : int;
      (* before the sink: 0 = nothing, 1 = heap overflow, 2 = write after
         free, 3 = double free through [free], 4 = byte store into the top
         byte of a live return-address slot *)
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
  let heap =
    match r.heap with
    | 1 ->
      "char *h = malloc(16); int j = 0; \
       while (j < 24) { h[j] = buf[j]; j = j + 1; } acc = acc + h[3];"
    | 2 -> "char *h = malloc(16); free(h); h[2] = buf[0];"
    | 3 -> "char *h = malloc(16); free(h); free(h);"
    | 4 -> "poke(buf, 23);"
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
    void poke(char *s, int k) {
      char local[16];
      int i = 0;
      local[k] = s[0];
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
      %s
      sink = acc;
      %s
      return 0;
    }
  |}
    r.cap r.cap r.cap r.reps r.stride r.cap r.stride r.addk words heap sink

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
    int_range 0 4 >>= fun heap ->
    return
      { cap; reps; stride; addk; use_words; vuln; over; msg_len; msg_seed; heap })

let print_recipe r =
  Printf.sprintf
    "cap=%d reps=%d stride=%d addk=%d words=%b vuln=%d over=%d len=%d seed=%d \
     heap=%d"
    r.cap r.reps r.stride r.addk r.use_words r.vuln r.over r.msg_len r.msg_seed
    r.heap

let arb_recipe = QCheck.make ~print:print_recipe gen_recipe

(* One compile, many identical processes: same image, same ASLR seed, same
   message — any divergence between two replays of such processes is an
   engine bug, not nondeterminism. *)
let load_and_poke app msg =
  let proc = Osim.Process.load ~aslr:true ~seed:17 app in
  ignore (Osim.Process.run proc);
  ignore (Osim.Process.send_message proc msg);
  proc

let clean_recipe =
  {
    cap = 64;
    reps = 3;
    stride = 2;
    addk = 7;
    use_words = true;
    vuln = 0;
    over = 0;
    msg_len = 48;
    msg_seed = 5;
    heap = 0;
  }

(* 24 nonzero message bytes: 16 fill [local], 4 the saved frame pointer,
   4 the return address — the smash stops exactly on the ret slot, so the
   clobbered target is tainted and vuln's own arguments stay intact. *)
let smash_recipe = { clean_recipe with vuln = 1; over = 20; msg_len = 24 }
let exec_recipe = { clean_recipe with vuln = 2 }

(* Directed heap misuse, each on the clean program. The overflow writes 8
   bytes past a 16-byte chunk; the ret-slot store writes [local[23]], the
   top byte of [poke]'s return-address slot (which starts 3 bytes below
   it: 16 bytes of [local], 4 of saved frame pointer, then the slot). *)
let heap_overflow_recipe = { clean_recipe with heap = 1 }
let dangling_recipe = { clean_recipe with heap = 2 }
let double_free_recipe = { clean_recipe with heap = 3 }
let ret_byte_recipe = { clean_recipe with heap = 4 }

(* ------------------------------------------------------------------ *)
(* Replay harness shared by the fused-vs-hooked suites                 *)
(* ------------------------------------------------------------------ *)

(* [replay.go f] prepares one identical replay state and runs [f] on it. *)
type replay = { go : 'a. (Osim.Process.t -> 'a) -> 'a }

(* The tier audit over one replay: the retirement counters' growth must
   equal the instructions it executed. (Deltas, because a rollback rewinds
   [icount] but never the monotonic retirement counters.) Also proof that
   the fused loop, not the hooked interpreter, did the work. *)
let audited f (proc : Osim.Process.t) =
  let c = proc.Osim.Process.cpu in
  let b0 = c.Vm.Cpu.block_retired
  and f0 = c.Vm.Cpu.fast_retired
  and s0 = c.Vm.Cpu.slow_retired
  and i0 = c.Vm.Cpu.icount in
  let r = f proc in
  Alcotest.(check int) "block + fast + slow retired == executed"
    (c.Vm.Cpu.icount - i0)
    (c.Vm.Cpu.block_retired - b0
    + (c.Vm.Cpu.fast_retired - f0)
    + (c.Vm.Cpu.slow_retired - s0));
  Alcotest.(check bool) "the fused loop retired instructions" true
    (c.Vm.Cpu.fast_retired - f0 > 0);
  r

(* A no-op global post-hook: the analysis is no longer alone, so it must
   take the hooked path, where every instruction retires slow. *)
let hooked f (proc : Osim.Process.t) =
  let cpu = proc.Osim.Process.cpu in
  let i0 = cpu.Vm.Cpu.icount and s0 = cpu.Vm.Cpu.slow_retired in
  let h = Vm.Cpu.add_post_hook cpu ignore in
  let r =
    Fun.protect ~finally:(fun () -> Vm.Cpu.remove_hook cpu h) (fun () -> f proc)
  in
  Alcotest.(check int) "hooked replay retires slow"
    (cpu.Vm.Cpu.icount - i0)
    (cpu.Vm.Cpu.slow_retired - s0);
  r

(* Boot a registry app, serve benign traffic, fire the canonical exploit,
   and return the analysis context every stage replays from. *)
let crashed_ctx key =
  let entry = Apps.Registry.find key in
  let proc = Osim.Process.load ~aslr:true ~seed:42 (entry.Apps.Registry.r_compile ()) in
  let server = Osim.Server.create proc in
  ignore (Osim.Server.run server);
  List.iter
    (fun m -> ignore (Osim.Server.handle server m))
    (Apps.Registry.workload key 10);
  let exploit = Apps.Registry.exploit ~system_guess:0x12345678 ~cmd_ptr:0 key in
  let fault = ref None in
  List.iter
    (fun m ->
      match Osim.Server.handle server m with
      | `Crashed (_, f) when !fault = None -> fault := Some f
      | _ -> ())
    exploit.Apps.Exploits.x_messages;
  match !fault with
  | Some f -> Sweeper.Stage.init ~app:key server f
  | None -> Alcotest.fail (key ^ ": exploit did not crash")

(* Replays of the analysis context, each from its rollback checkpoint. *)
let exploit_replay cx = { go = (fun f -> Sweeper.Stage.Replay.analyze cx f) }
