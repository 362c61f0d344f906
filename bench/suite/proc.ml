(* Child processes: spawn, collect both output streams, reap. *)

(* [wait4 pid]: exit code, peak RSS (KiB) and CPU time (us) of a child. *)
external wait4 : int -> int * int * int = "rmlbench_wait4"

type result = {
  code : int;
  out : string;
  err : string;
  cpu_ms : float;  (** the child's CPU time, user + system *)
}

let drain fd =
  let ic = Unix.in_channel_of_descr fd in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      In_channel.input_all ic)

(* stdout is read to the end before stderr: every child this benchmark
   starts writes at most a few KiB to stderr, far below a pipe buffer,
   so it can never block on stderr while we wait on stdout. *)
let run prog args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ out_w; err_w; null ])
      (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) null out_w
          err_w)
  in
  let out = drain out_r in
  let err = drain err_r in
  let code, _, cpu_us = wait4 pid in
  { code; out; err; cpu_ms = float_of_int cpu_us /. 1e3 }
