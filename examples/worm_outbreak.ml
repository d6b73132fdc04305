(* Worm outbreak, mechanically: a small community of real (simulated) hosts
   running the vulnerable web server, attacked by a hit-list worm firing
   actual exploit bytes. Producer hosts run the full Sweeper stack; when one
   of them is probed it generates an antibody and publishes it; consumers
   deploy it and become immune. Every infection, crash, and block below is
   the result of genuine machine-level execution, not a model.

   Exits non-zero if any host ends up infected or any uninfected host
   stops serving.

   Run with: dune exec examples/worm_outbreak.exe *)

module Sh = Sweeper.Defense.Sharded

let () =
  let n_hosts = 24 in
  let n_producers = 3 in
  Printf.printf "== Hit-list worm vs a %d-host community (%d producers) ==\n\n"
    n_hosts n_producers;
  let entry = Apps.Registry.find "apache1" in
  let community =
    Sh.create ~app:"apache1" ~compile:entry.r_compile ~n:n_hosts
      ~producers:n_producers ~seed:1000 ()
  in
  (* The worm: knows the binary (fixed application addresses) but must guess
     each host's randomized libc base. *)
  let rng = Random.State.make [| 0xBADC0DE |] in
  let exploit_for (_host : Sweeper.Defense.host) =
    let slide_guess = Random.State.int rng 4096 * 4096 in
    let exploit =
      Apps.Exploits.apache1_against
        ~system_guess:(0x4f770000 + slide_guess + 0x15a0)
        ~reqbuf_addr:0x08100000 ()
    in
    exploit.Apps.Exploits.x_messages
  in
  for round = 1 to 4 do
    Sh.post_traffic community ~traffic:exploit_for;
    ignore (Sh.run_round community);
    let s = Sh.summary community in
    Printf.printf
      "round %d: %2d/%d infected | %3d attempts, %d detections, %d blocked by \
       antibodies%s\n"
      round s.Sh.sm_infected_hosts n_hosts s.Sh.sm_attempts s.Sh.sm_crashes
      s.Sh.sm_blocked
      (match (round, s.Sh.sm_first_antibody_vtime_ms) with
      | 1, Some ms -> Printf.sprintf " | first antibody at %.1f ms (virtual)" ms
      | _ -> "")
  done;
  let hosts = Sh.hosts community in
  let infected = List.filter (fun h -> h.Sweeper.Defense.h_infected) hosts in
  let armed = List.filter (fun h -> h.Sweeper.Defense.h_deployed > 0) hosts in
  let serving =
    List.for_all
      (fun (h : Sweeper.Defense.host) ->
        h.Sweeper.Defense.h_infected
        ||
        match Osim.Server.handle h.Sweeper.Defense.h_server "noop" with
        | `Served _ | `Stopped -> true
        | `Filtered _ | `Crashed _ | `Infected _ -> false)
      hosts
  in
  Printf.printf "\nfinal infection ratio: %.0f%%; antibody deployed on %d/%d hosts\n"
    (100. *. float_of_int (List.length infected) /. float_of_int n_hosts)
    (List.length armed) n_hosts;
  Printf.printf "all uninfected hosts still serving: %b\n" serving;
  (* Contrast with the analytic model at community scale: the same α and a
     5-second γ contain even a β=4000 hit-list worm across 100k hosts. *)
  let alpha = float_of_int n_producers /. float_of_int n_hosts in
  let p = { (Epidemic.Si.hitlist ~beta:4000. ()) with alpha } in
  Printf.printf
    "\n(analytic cross-check: alpha=%.3f, beta=4000, gamma=5s over 100k \
     hosts -> %.2f%% infected)\n"
    alpha
    (100. *. Epidemic.Si.infection_ratio p ~gamma:5.);
  if infected <> [] || not serving then exit 1
