(* Clock, metric collection and result output shared by the workloads. *)

(* Monotonic nanoseconds as a native int: subtraction and comparison on
   the pacing path stay unboxed. *)
let now () = Int64.to_int (Monotonic_clock.now ())

let s_of_ns ns = float_of_int ns /. 1e9
let us_of_ns ns = float_of_int ns /. 1e3

type metric = { name : string; value : float; unit_ : string }

type t = {
  mutable metrics : metric list; (* newest first *)
  mutable notes : string list; (* newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list; (* first few correctness failures *)
}

let create () =
  { metrics = []; notes = []; attempted = 0; failed = 0; errors = [] }

let add t name unit_ value =
  if not (Float.is_finite value) then
    invalid_arg ("Report.add: non-finite value for " ^ name);
  t.metrics <- { name; value; unit_ } :: t.metrics

let note t fmt = Printf.ksprintf (fun s -> t.notes <- s :: t.notes) fmt

let fail t fmt =
  Printf.ksprintf
    (fun s ->
      t.failed <- t.failed + 1;
      if List.length t.errors < 10 then t.errors <- s :: t.errors)
    fmt

(* Exact sample store for percentiles (log-bucketed histograms would
   quantise a median to its bucket, and two runs would then often read the
   same value). Off the OCaml heap, so recording samples leaves
   heap_peak_mb alone; single writer per store. *)
module Samples = struct
  module A = Bigarray.Array1

  type t = {
    mutable a : (float, Bigarray.float64_elt, Bigarray.c_layout) A.t;
    mutable n : int;
    mutable sorted : float array option;
  }

  let create () =
    { a = A.create Bigarray.float64 Bigarray.c_layout 4096; n = 0; sorted = None }

  let add t v =
    if t.n = A.dim t.a then begin
      let b = A.create Bigarray.float64 Bigarray.c_layout (2 * t.n) in
      A.blit t.a (A.sub b 0 t.n);
      t.a <- b
    end;
    A.unsafe_set t.a t.n v;
    t.n <- t.n + 1;
    t.sorted <- None

  let count t = t.n

  let clear t =
    t.n <- 0;
    t.sorted <- None

  let sorted t =
    match t.sorted with
    | Some s -> s
    | None ->
        let s = Array.init t.n (fun i -> A.unsafe_get t.a i) in
        Array.sort Float.compare s;
        t.sorted <- Some s;
        s

  (* nearest rank; 0 when empty *)
  let pct t q =
    let s = sorted t in
    let n = Array.length s in
    if n = 0 then 0.0
    else
      s.(Stdlib.min (n - 1)
           (Stdlib.max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))
end

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s -> List.nth s (List.length s / 2)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Human-readable lines, then one machine-readable line prefixed RESULT
   that perfbench/run.py turns into the benchmark's final JSON object. *)
let print ~workload t =
  let ms = List.rev t.metrics in
  Printf.printf "== %s ==\n" workload;
  List.iter (fun n -> Printf.printf "# %s\n" n) (List.rev t.notes);
  List.iter
    (fun m -> Printf.printf "%-40s %16.4f %s\n" m.name m.value m.unit_)
    ms;
  List.iter (fun e -> Printf.printf "FAIL %s\n" e) (List.rev t.errors);
  let correct = t.failed = 0 in
  Printf.printf "correct=%b attempted=%d failed=%d\n" correct t.attempted
    t.failed;
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}"
          (json_string m.name) m.value (json_string m.unit_))
      ms
  in
  Printf.printf
    "RESULT {\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n"
    correct t.attempted t.failed
    (String.concat ", " fields);
  flush stdout;
  correct

(* --- spans ---------------------------------------------------------------

   A span is (request, name, parent, start, end) in monotonic ns. Spans
   are held in memory while the workload runs and written, one CSV row
   each, when it ends. *)

type span_log = { buf : Buffer.t; mutable rows : int }

let span_log () =
  let buf = Buffer.create (1 lsl 20) in
  Buffer.add_string buf "request,name,parent,start_ns,end_ns\n";
  { buf; rows = 0 }

let span l ~req ~name ~parent ~start ~stop =
  Printf.bprintf l.buf "%d,%s,%s,%d,%d\n" req name parent start stop;
  l.rows <- l.rows + 1

let write_spans l ~path =
  (try Unix.mkdir (Filename.dirname path) 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out path in
  Buffer.output_buffer oc l.buf;
  close_out oc
