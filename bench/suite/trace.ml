(* The benchmark's span recorder. Spans are taken around the calls the
   benchmark makes into each layer, kept in memory, and written at exit
   as chrome-trace JSON. A span's self time is its duration minus the
   durations of its child spans (one thread, so children never
   overlap). Beside spans the recorder keeps named counters and named
   samples for values that are not durations of one call. *)

type span = {
  id : int;
  name : string;
  op : int;  (** the end-to-end op (or set-up compile) it belongs to *)
  parent : int;  (** [-1] at top level *)
  grammar : string;
  sweep : bool;  (** recorded while running another layer's probe *)
  start_ns : int;
  mutable end_ns : int;
  mutable child_ns : int;
  mutable args : (string * int) list;
}

type t = {
  mutable next_id : int;
  mutable op : int;
  mutable sweep : bool;
  mutable stack : span list;
  mutable spans : span list;
  counts : (string, int) Hashtbl.t;
  samples : (string, float list) Hashtbl.t;
}

let now_ns = Rats.Profile.now_ns

let create () =
  {
    next_id = 0;
    op = 0;
    sweep = false;
    stack = [];
    spans = [];
    counts = Hashtbl.create 16;
    samples = Hashtbl.create 16;
  }

let new_op = function None -> () | Some t -> t.op <- t.op + 1
let set_sweep t b = Option.iter (fun t -> t.sweep <- b) t
let self_ns s = s.end_ns - s.start_ns - s.child_ns

let count tr name n =
  Option.iter
    (fun t ->
      Hashtbl.replace t.counts name
        (n + Option.value ~default:0 (Hashtbl.find_opt t.counts name)))
    tr

let sample tr name v =
  Option.iter
    (fun t ->
      Hashtbl.replace t.samples name
        (v :: Option.value ~default:[] (Hashtbl.find_opt t.samples name)))
    tr

let counted t name = Option.value ~default:0 (Hashtbl.find_opt t.counts name)
let sampled t name = Option.value ~default:[] (Hashtbl.find_opt t.samples name)

let open_span t ?grammar ~start_ns name =
  let parent, inherited =
    match t.stack with p :: _ -> (p.id, p.grammar) | [] -> (-1, "")
  in
  let s =
    {
      id = t.next_id;
      name;
      op = t.op;
      parent;
      grammar = Option.value grammar ~default:inherited;
      sweep = t.sweep;
      start_ns;
      end_ns = start_ns;
      child_ns = 0;
      args = [];
    }
  in
  t.next_id <- t.next_id + 1;
  s

let close_span t s =
  (match t.stack with p :: _ -> p.child_ns <- p.child_ns + (s.end_ns - s.start_ns) | [] -> ());
  t.spans <- s :: t.spans

(* [span tr name f] runs [f] inside a span; [args] turns the result into
   integer attributes once the clock has stopped. *)
let span tr ?grammar ?(args = fun _ -> []) name f =
  match tr with
  | None -> f ()
  | Some t -> (
      let s = open_span t ?grammar ~start_ns:(now_ns ()) name in
      t.stack <- s :: t.stack;
      let finish () =
        s.end_ns <- now_ns ();
        t.stack <- List.tl t.stack;
        close_span t s
      in
      match f () with
      | v ->
          finish ();
          s.args <- args v;
          v
      | exception e ->
          finish ();
          raise e)

(* A span whose interval was measured by a callback rather than around a
   call: a batch document runs between two [on_record] callbacks. *)
let add tr ?grammar ?(args = []) name ~start_ns ~end_ns =
  Option.iter
    (fun t ->
      let s = open_span t ?grammar ~start_ns name in
      s.end_ns <- end_ns;
      s.args <- args;
      close_span t s)
    tr

(* --- crossing a process boundary ---------------------------------------
   A child process records into its own recorder and prints it with
   [to_lines], parents before children (span ids count up as spans
   open); the parent re-creates those spans under its open span with
   [import]. Both read CLOCK_MONOTONIC, so times line up. *)

let to_lines t =
  let b = Buffer.create 1024 in
  List.iter
    (fun s ->
      Printf.bprintf b "%d\t%d\t%s\t%s\t%d\t%d\t%d\t%s\n" s.id s.parent s.name
        s.grammar s.start_ns s.end_ns s.child_ns
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) s.args)))
    (List.sort (fun a b -> compare a.id b.id) t.spans);
  Buffer.contents b

let import tr text =
  match tr with
  | None -> ()
  | Some t ->
      let ids = Hashtbl.create 16 in
      let top = match t.stack with p :: _ -> Some p | [] -> None in
      String.split_on_char '\n' text
      |> List.iter (fun line ->
             match String.split_on_char '\t' line with
             | [ id; parent; name; grammar; start_ns; end_ns; child_ns; args ] ->
                 let s =
                   open_span t ~grammar ~start_ns:(int_of_string start_ns) name
                 in
                 let parent =
                   match Hashtbl.find_opt ids (int_of_string parent) with
                   | Some p -> p
                   | None -> (
                       match top with
                       | Some p ->
                           p.child_ns <-
                             p.child_ns
                             + (int_of_string end_ns - int_of_string start_ns);
                           p.id
                       | None -> -1)
                 in
                 Hashtbl.replace ids (int_of_string id) s.id;
                 t.spans <-
                   {
                     s with
                     parent;
                     end_ns = int_of_string end_ns;
                     child_ns = int_of_string child_ns;
                     args =
                       List.filter_map
                         (fun kv ->
                           match String.split_on_char '=' kv with
                           | [ k; v ] -> Some (k, int_of_string v)
                           | _ -> None)
                         (String.split_on_char ',' args);
                   }
                   :: t.spans
             | _ -> ())

(* Chrome trace of [(process name, recorder)] pairs: one process per
   recorder, one complete ("X") event per span, microseconds from the
   first span. [args] carries op id, span id, parent id, grammar, self
   time and the span's integer attributes. *)
let to_chrome runs =
  let t0 =
    List.fold_left
      (fun m (_, t) -> List.fold_left (fun m s -> min m s.start_ns) m t.spans)
      max_int runs
  in
  let b = Buffer.create 65536 in
  Buffer.add_string b "[";
  List.iteri
    (fun pid (process, t) ->
      if pid > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":%S}}"
        pid process;
      List.iter
        (fun s ->
          Printf.bprintf b
            ",\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,\"id\":%d,\"parent\":%d,\"grammar\":%S,\"self_us\":%.3f%s}}"
            s.name
            (if s.sweep then "sweep" else "op")
            pid
            (float_of_int (s.start_ns - t0) /. 1e3)
            (float_of_int (s.end_ns - s.start_ns) /. 1e3)
            s.op s.id s.parent s.grammar
            (float_of_int (self_ns s) /. 1e3)
            (String.concat ""
               (List.map (fun (k, v) -> Printf.sprintf ",%S:%d" k v) s.args)))
        (List.rev t.spans))
    runs;
  Buffer.add_string b "]\n";
  Buffer.contents b
