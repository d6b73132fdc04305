(* Clock and order statistics shared by the workloads and [compare]. *)

(* Monotonic nanosecond clock, in seconds. Per-request latencies are tens
   of microseconds, so the microsecond [Unix.gettimeofday] would quantize
   them by several percent. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let sorted l = List.sort Float.compare l

(* Linear-interpolated percentile ([p] in 0..100) of a non-empty list. *)
let percentile p l =
  let a = Array.of_list (sorted l) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float rank in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((a.(hi) -. a.(lo)) *. (rank -. float_of_int lo))

let median l = percentile 50. l

(* First and third quartiles exactly as Python's
   [statistics.quantiles(data, n=4)] (the default "exclusive" method)
   computes them, so the spreads reported here match what an external
   check computes from the same values. *)
let quartiles l =
  let a = Array.of_list (sorted l) in
  let ld = Array.length a in
  match ld with
  | 0 -> invalid_arg "Stats.quartiles: no samples"
  | 1 -> (a.(0), a.(0))
  | _ ->
    let n = 4 and m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
      /. float_of_int n
    in
    (q 1, q 3)

(* Interquartile range as a share of the median: the run-to-run spread
   the regression bounds are stated against. *)
let spread l =
  let q1, q3 = quartiles l in
  let m = median l in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m

type summary = { median : float; p25 : float; p75 : float; n : int }

let summarize l =
  let p25, p75 = quartiles l in
  { median = median l; p25; p75; n = List.length l }

(* A latency recorder of constant size: log-spaced buckets 0.5% wide from
   1 ns to ~100 s, with linear interpolation inside the bucket a rank
   falls in. Its footprint does not grow with the number of requests a
   run completes, so a faster build does not show up as a larger heap. *)
module Hist = struct
  let ratio = 1.005
  let nbuckets = 5200
  let log_ratio = log ratio

  type t = { counts : int array; mutable total : int }

  let create () = { counts = Array.make nbuckets 0; total = 0 }

  let bucket_of ns =
    if ns <= 1. then 0 else min (nbuckets - 1) (int_of_float (log ns /. log_ratio))

  let lower b = if b = 0 then 0. else exp (float_of_int b *. log_ratio)

  let add t seconds =
    let ns = seconds *. 1e9 in
    let b = bucket_of ns in
    t.counts.(b) <- t.counts.(b) + 1;
    t.total <- t.total + 1

  (* The [p]th percentile, in seconds. *)
  let percentile t p =
    if t.total = 0 then invalid_arg "Stats.Hist.percentile: no samples";
    let rank = p /. 100. *. float_of_int (t.total - 1) in
    let rec go b seen =
      let c = t.counts.(b) in
      if c > 0 && float_of_int (seen + c) > rank then
        let frac =
          Float.min 1. ((rank -. float_of_int seen +. 0.5) /. float_of_int c)
        in
        let lo = lower b and hi = lower (b + 1) in
        (lo +. ((hi -. lo) *. frac)) *. 1e-9
      else go (b + 1) (seen + c)
    in
    go 0 0
end
