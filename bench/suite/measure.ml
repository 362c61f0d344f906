(* Closed-loop timing: run blocks of ops until the clock says stop, in
   rounds, and summarise each round.

   Ops are timed in CPU time (user + system), the run's length in wall
   time. An op runs on one thread and waits for no I/O (documents are in
   memory or in the page cache), so on an idle machine its CPU time is
   its latency. On a shared one, wall time also counts the stretches in
   which another process held the processor or the host descheduled the
   virtual CPU; those say nothing about the program and moved wall-time
   latencies by up to 2x between minutes. *)

type op = {
  ms : float;  (** CPU time of the op *)
  bytes : int;  (** input bytes the op parsed *)
  ok : bool;  (** the output agrees with the oracle *)
  cls : string;  (** document class, for the per-class failure table *)
  timed : bool;  (** [false]: checked but not timed (warm-up, a batch's first document) *)
}

let now_ns = Rats.Profile.now_ns
let ms_since t0 = float_of_int (now_ns () - t0) /. 1e6

(* CPU time this process has used, in ns. *)
external cpu_ns : unit -> int = "rmlbench_cpu_ns"

let cpu_ms_since t0 = float_of_int (cpu_ns () - t0) /. 1e6

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* --- host speed --------------------------------------------------------------
   CPU time leaves steal time out, yet it still moves with the host:
   other tenants' cache and memory traffic slowed every workload, and
   the compiles of set-up, by up to 1.8x for minutes at a time while
   nothing else ran in the VM. So the benchmark also times a fixed
   computation of its own, the reference, between blocks, and scales
   CPU times by [nominal_ms /. reference time]: the numbers it reports
   are CPU times on a host that runs the reference in [nominal_ms],
   about the time it takes (2.6-3.0 ms) on an idle 2-vCPU VM. The
   reference allocates short lists and drops them, as the parsers
   allocate short-lived values: of the candidates tried, it followed the
   slow spells best. At most two of its lists survive a minor
   collection, so it gives the major GC next to no work and does not
   slow down with the workload's heap. *)

let reference () =
  let acc = ref 0 in
  for _ = 1 to 300 do
    let l = List.init 1000 (fun i -> i * 3) in
    acc := !acc + List.fold_left ( + ) 0 (List.rev l)
  done;
  !acc

let nominal_ms = 3.0

let reference_ms () =
  let t0 = cpu_ns () in
  ignore (Sys.opaque_identity (reference ()));
  cpu_ms_since t0

(* What a CPU time measured now reads at nominal speed. *)
let speed_scale reference_ms = nominal_ms /. reference_ms

type tally = {
  mutable attempted : int;
  mutable failed : int;
  classes : (string, int * int) Hashtbl.t;  (** class -> attempted, failed *)
}

let tally () = { attempted = 0; failed = 0; classes = Hashtbl.create 8 }

let count tally ops =
  List.iter
    (fun o ->
      tally.attempted <- tally.attempted + 1;
      if not o.ok then tally.failed <- tally.failed + 1;
      let a, f =
        Option.value ~default:(0, 0) (Hashtbl.find_opt tally.classes o.cls)
      in
      Hashtbl.replace tally.classes o.cls (a + 1, if o.ok then f else f + 1))
    ops

(* The end-to-end metrics of one round, from op times already at
   nominal speed. Throughput is over the CPU time spent inside ops, so
   the oracle checks between ops do not count. *)
let round_metrics ops =
  let ms = List.map (fun o -> o.ms) ops in
  let busy_s = List.fold_left ( +. ) 0. ms /. 1e3 in
  let bytes = List.fold_left (fun a o -> a + o.bytes) 0 ops in
  [
    ("op_cpu_ms_p50", quantile ms 0.5);
    ("op_cpu_ms_p90", quantile ms 0.9);
    ("ops_per_cpu_s", float_of_int (List.length ops) /. busy_s);
    ("mb_per_cpu_s", float_of_int bytes /. 1e6 /. busy_s);
  ]

(* Blocks run back to back: first for [warmup] seconds (checked, not
   timed), then for [seconds] split into [rounds] equal rounds, each of
   at least one block. A block is the workload's unit of mix (one op per
   grammar, one batch stream, ...), so every round holds whole mixes.
   [block r] gets the round's index (warm-up: 0). Before a block,
   [reference] times the reference if it has not run for 100 ms, and
   the block's op times are scaled by the latest reference time: the
   host's speed moves within a round, and scaling each block by the
   reference next to it cut the spread of batch's and edit's times by a
   quarter to a half against scaling whole rounds by their median
   reference. Each round is reduced to its metrics as it ends, so the op
   records a fast run piles up do not raise the peak RSS the workload
   reports. Returns the rounds' metrics and the median reference time. *)
let rounds ~tally ~reference ~warmup ~seconds ~rounds block =
  let refs = ref [] in
  let run_until stop r =
    let acc = ref [] and last = ref 0 and scale = ref 1. in
    let first = ref true in
    while !first || now_ns () < stop do
      first := false;
      if !last = 0 || now_ns () - !last >= 100_000_000 then (
        last := now_ns ();
        let t = reference () in
        refs := t :: !refs;
        scale := speed_scale t);
      let ops = block r in
      count tally ops;
      let s = !scale in
      acc := List.rev_append (List.map (fun o -> { o with ms = o.ms *. s }) ops) !acc
    done;
    round_metrics (List.filter (fun o -> o.timed) !acc)
  in
  let ns s = int_of_float (s *. 1e9) in
  if warmup > 0. then (
    ignore (run_until (now_ns () + ns warmup) 0);
    refs := []);
  let metrics =
    Array.init rounds (fun r -> run_until (now_ns () + ns (seconds /. float_of_int rounds)) r)
  in
  (metrics, median !refs)
