(* Random MiniC workloads shared by the differential suites (taint engines,
   slicer paths): one fixed program shape whose knobs range over clean
   runs, benign faults, smashed returns, and exec hijacks. *)

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
   over clean runs, benign faults, smashed returns, and exec hijacks. *)
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
    return { cap; reps; stride; addk; use_words; vuln; over; msg_len; msg_seed })

let print_recipe r =
  Printf.sprintf
    "cap=%d reps=%d stride=%d addk=%d words=%b vuln=%d over=%d len=%d seed=%d"
    r.cap r.reps r.stride r.addk r.use_words r.vuln r.over r.msg_len r.msg_seed

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
  }

(* 24 nonzero message bytes: 16 fill [local], 4 the saved frame pointer,
   4 the return address — the smash stops exactly on the ret slot, so the
   clobbered target is tainted and vuln's own arguments stay intact. *)
let smash_recipe = { clean_recipe with vuln = 1; over = 20; msg_len = 24 }
let exec_recipe = { clean_recipe with vuln = 2 }
