(* The admission pipeline timed stage by stage, and the admit-corpus
   workload built on it.

   One admission is compile (eclang source → bytecode; assembling for
   fuzz programs) → verify (with the §4.3 spill retry, as Kflex.admit
   does) → instrument → Vm.create + Vm.precompile. The stages are called
   directly rather than through Kflex.admit, so the process-global
   compiled-program cache never turns an admission into a cache hit. *)

open Kflex_kernel
module Verify = Kflex_verifier.Verify
module Compile = Kflex_eclang.Compile
module Instrument = Kflex_kie.Instrument
module Vm = Kflex_runtime.Vm
module Jit = Kflex_runtime.Jit
module Stats = Report.Samples
module Rng = Kflex_workload.Rng

type source = Ec of { src : string; use_heap : bool } | Asm of Kflex_bpf.Asm.item list

type expect = Accept | Reject | Stable
(* Stable: no known answer (fuzz programs) — the verdict must simply be
   the same every time the program is admitted. *)

type prog = {
  pname : string;
  source : source;
  mode : Verify.mode;
  heap_size : int64 option;
  hook : Hook.kind;
  expect : expect;
  per_program : bool; (* report verifier.verify_us.<pname> *)
}

let ec ?(use_heap = true) ?(mode = Verify.Kflex) ?(heap_bits = Some 24)
    ?(hook = Hook.Xdp) ?(expect = Accept) ?(per_program = false) pname src =
  {
    pname;
    source = Ec { src; use_heap };
    mode;
    heap_size = Option.map (fun b -> Int64.shift_left 1L b) heap_bits;
    hook;
    expect;
    per_program;
  }

(* Rate-limiter parameters of redis-guard-burst. bpf_ktime_get_ns ticks
   once per call on an engine shard, so the window is 4096 requests, and
   a key class (of 64) is refused past 96 requests in one window: the hot
   classes of a Zipf 0.8 stream are refused a steady few percent. *)
let guard_capacity = 96
let guard_window_us = 4.096

(* The guard tenants exactly as the serve front end attaches them. *)
let ratelimit_bucket =
  ec ~heap_bits:(Some 12) ~hook:Hook.Sk_skb ~per_program:true
    "ratelimit_bucket"
    (Kflex_apps.Ratelimit.bucket_source ~pass:0L ~drop:1L ~capacity:guard_capacity
       ~window_ns:(Int64.of_float (guard_window_us *. 1e3)))

let conntrack =
  ec ~heap_bits:(Some 12) ~hook:Hook.Sk_skb ~per_program:true "conntrack"
    (Kflex_apps.Ratelimit.conntrack_source ~pass:0L ~drop:1L)

let memcached =
  ec ~per_program:true "memcached" Kflex_apps.Memcached.kflex_source

let redis =
  ec ~hook:Hook.Sk_skb ~per_program:true "redis" Kflex_apps.Redis.source

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every shipped extension: the §5.1 app tenants, the six Figure 5
   structures (dispatching source, one program per operation, chain
   form) and the eclang examples shipped in examples/ec. *)
let shipped ~examples_dir =
  let apps =
    [
      memcached;
      ec ~use_heap:false ~mode:Verify.Ebpf ~heap_bits:None ~per_program:true
        "bmc" Kflex_apps.Memcached.bmc_source;
      redis;
      ratelimit_bucket;
      conntrack;
    ]
  in
  let module D = Kflex_apps.Datastructs in
  let fig5 =
    List.concat_map
      (fun k ->
        let n = D.name k in
        [
          ec ~per_program:true n (D.source k);
          ec (n ^ ".update") (D.op_source k `Update);
          ec (n ^ ".lookup") (D.op_source k `Lookup);
          ec (n ^ ".delete") (D.op_source k `Delete);
          ec (n ^ ".chain") (D.chain_source k);
        ])
      D.all
  in
  let examples =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ec")
    |> List.sort compare
    |> List.map (fun f ->
           let n = Filename.chop_suffix f ".ec" in
           (* ratelimit_buggy returns while holding a map lock: the
              verifier must refuse it *)
           let expect = if n = "ratelimit_buggy" then Reject else Accept in
           ec ~expect ~per_program:true n
             (read_file (Filename.concat examples_dir f)))
  in
  apps @ fig5 @ examples

(* Seeded random programs from the differential fuzzer's generator; some
   are accepted, some rejected. Items that fail to assemble are skipped
   (deterministically, so a seed always yields the same mix). *)
let fuzz_programs ~seed ~count =
  let rng = Rng.create ~seed:(Int64.of_int (0x5eed + seed)) in
  let rec go acc i =
    if List.length acc >= count then List.rev acc
    else
      let heap_size = Int64.shift_left 1L (Rng.choose rng [| 12; 14; 16 |]) in
      let items =
        Kflex_fuzz.Gen.generate ~rng:(Rng.split rng) ~heap_size ~port:53 ()
      in
      let acc =
        match Kflex_fuzz.Gen.assemble items with
        | exception _ -> acc
        | _ ->
            {
              pname = Printf.sprintf "fuzz%d" i;
              source = Asm items;
              mode = Verify.Kflex;
              heap_size = Some heap_size;
              hook = Hook.Xdp;
              expect = Stable;
              per_program = false;
            }
            :: acc
      in
      go acc (i + 1)
  in
  go [] 0

(* --- one admission -------------------------------------------------------- *)

type result = {
  accepted : bool;
  insns : int; (* bytecode length before instrumentation *)
  t0 : int; (* start; each stage ends at the next stamp *)
  t_compile : int;
  t_verify : int;
  t_instrument : int;
  t_jit : int; (* = t_verify when rejected *)
  counted : int; (* guardable heap accesses *)
  elided : int;
  fused : int;
}

let helpers = lazy (Helpers.implementations (Helpers.create ()))

let verify p prog =
  let run prog =
    Verify.run ~mode:p.mode ~contracts:Kflex.contracts ~ctx_size:Hook.ctx_size
      ?heap_size:p.heap_size ~sleepable:(Hook.sleepable p.hook) prog
  in
  match run prog with
  | Error { Verify.kind = Verify.E_leak; _ } as e -> (
      match Kflex_kie.Spill.mitigate ~contracts:Kflex.contracts prog with
      | None -> e
      | Some prog' -> ( match run prog' with Ok a -> Ok a | Error _ -> e))
  | r -> r

let admit_once p =
  let helpers = Lazy.force helpers in
  let t0 = Report.now () in
  let prog =
    match p.source with
    | Ec { src; use_heap } -> (Compile.compile_string ~use_heap ~name:p.pname src).Compile.prog
    | Asm items -> Kflex_fuzz.Gen.assemble items
  in
  let t_compile = Report.now () in
  let insns = Kflex_bpf.Prog.length prog in
  match verify p prog with
  | Error _ ->
      let t_verify = Report.now () in
      {
        accepted = false;
        insns;
        t0;
        t_compile;
        t_verify;
        t_instrument = t_verify;
        t_jit = t_verify;
        counted = 0;
        elided = 0;
        fused = 0;
      }
  | Ok analysis ->
      let t_verify = Report.now () in
      let kie = Instrument.run ~options:Instrument.default_options analysis in
      let t_instrument = Report.now () in
      let ext = Vm.create ~helpers kie in
      let jit = Vm.precompile ext in
      let t_jit = Report.now () in
      let r = kie.Instrument.report in
      {
        accepted = true;
        insns;
        t0;
        t_compile;
        t_verify;
        t_instrument;
        t_jit;
        counted = r.Kflex_kie.Report.counted_sites;
        elided = r.Kflex_kie.Report.elided;
        fused = Jit.fused_pairs jit;
      }

(* --- stage accounting ------------------------------------------------------ *)

type acc = {
  compile : Stats.t;
  verify_ : Stats.t;
  instrument : Stats.t;
  jit : Stats.t;
  total : Stats.t;
  per_prog : (string, Stats.t) Hashtbl.t;
  mutable counted : int;
  mutable elided : int;
  mutable fused : int;
  mutable fuzz_seen : int;
  mutable fuzz_accepted : int;
}

let acc () =
  {
    compile = Stats.create ();
    verify_ = Stats.create ();
    instrument = Stats.create ();
    jit = Stats.create ();
    total = Stats.create ();
    per_prog = Hashtbl.create 16;
    counted = 0;
    elided = 0;
    fused = 0;
    fuzz_seen = 0;
    fuzz_accepted = 0;
  }

let record a p r =
  let us x y = Report.us_of_ns (y - x) in
  Stats.add a.compile (us r.t0 r.t_compile);
  Stats.add a.verify_ (us r.t_compile r.t_verify);
  if r.accepted then begin
    Stats.add a.instrument (us r.t_verify r.t_instrument);
    Stats.add a.jit (us r.t_instrument r.t_jit)
  end;
  Stats.add a.total (us r.t0 r.t_jit);
  if p.per_program then begin
    let s =
      match Hashtbl.find_opt a.per_prog p.pname with
      | Some s -> s
      | None ->
          let s = Stats.create () in
          Hashtbl.replace a.per_prog p.pname s;
          s
    in
    Stats.add s (us r.t_compile r.t_verify)
  end;
  a.counted <- a.counted + r.counted;
  a.elided <- a.elided + r.elided;
  a.fused <- a.fused + r.fused;
  if p.expect = Stable then begin
    a.fuzz_seen <- a.fuzz_seen + 1;
    if r.accepted then a.fuzz_accepted <- a.fuzz_accepted + 1
  end

(* Metric names of the per-program verify times: every program that
   reports one, whatever the workload, so every run emits the same set. *)
let per_program_names =
  lazy
    (List.filter_map
       (fun p -> if p.per_program then Some p.pname else None)
       (shipped ~examples_dir:"examples/ec"))

let report_layers rep a =
  let p50 s = Stats.pct s 0.50 in
  Report.add rep "eclang.compile_us.p50" "us" (p50 a.compile);
  Report.add rep "verifier.verify_us.p50" "us" (p50 a.verify_);
  Report.add rep "verifier.verify_us.p99" "us" (Stats.pct a.verify_ 0.99);
  Report.add rep "kie.instrument_us.p50" "us" (p50 a.instrument);
  Report.add rep "jit.compile_us.p50" "us" (p50 a.jit);
  List.iter
    (fun n ->
      let v =
        match Hashtbl.find_opt a.per_prog n with Some s -> p50 s | None -> 0.0
      in
      Report.add rep ("verifier.verify_us." ^ n) "us" v)
    (Lazy.force per_program_names);
  Report.add rep "verifier.accept_frac.fuzz" "frac"
    (if a.fuzz_seen = 0 then 0.0
     else float_of_int a.fuzz_accepted /. float_of_int a.fuzz_seen);
  Report.add rep "kie.elided_frac" "frac"
    (if a.counted = 0 then 0.0
     else float_of_int a.elided /. float_of_int a.counted);
  let n = Stats.count a.total in
  Report.add rep "jit.fused_pairs" "count/prog"
    (if n = 0 then 0.0 else float_of_int a.fused /. float_of_int n)

(* Admission layers for a serve workload: its own tenants, admitted
   [reps] times each. *)
let tenant_layers rep progs ~reps =
  let a = acc () in
  for _ = 1 to reps do
    List.iter (fun p -> record a p (admit_once p)) progs
  done;
  report_layers rep a

(* --- the admit-corpus workload ------------------------------------------- *)

(* Programs at least this long (bytecode insns before instrumentation)
   form the "heavy" class — the big shipped extensions, where verifier
   state growth shows; everything shorter is "light". A fixed property of
   each program, so the split never depends on a run's timings. *)
let heavy_insns = 300

let fuzz_count = 192

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* [layers_only]: report the admission layers alone (no end-to-end
   figures, GC counts, closure or spans), for a serve workload's traced
   run; the verdict checks still run. *)
let run ?(layers_only = false) ~seed ~seconds ~trace ~spans_path rep =
  let build () =
    Array.of_list
      (shipped ~examples_dir:"examples/ec" @ fuzz_programs ~seed ~count:fuzz_count)
  in
  (* set-up: building the program mix, median of several *)
  let setups =
    List.init 5 (fun _ ->
        let t0 = Report.now () in
        let c = build () in
        (Report.now () - t0, c))
  in
  let corpus = snd (List.hd setups) in
  let setup_s = Report.median (List.map (fun (t, _) -> Report.s_of_ns t) setups) in
  let n = Array.length corpus in
  (* warm-up round: fills caches, records each fuzz program's verdict *)
  let verdict = Array.make n false in
  let check i (r : result) ~first =
    let p = corpus.(i) in
    rep.Report.attempted <- rep.Report.attempted + 1;
    match p.expect with
    | Accept when not r.accepted -> Report.fail rep "%s: rejected, expected accept" p.pname
    | Reject when r.accepted -> Report.fail rep "%s: accepted, expected reject" p.pname
    | Stable when first -> verdict.(i) <- r.accepted
    | Stable when verdict.(i) <> r.accepted ->
        Report.fail rep "%s: verdict changed between admissions" p.pname
    | _ -> ()
  in
  let insns = Array.make n 0 in
  Array.iteri
    (fun i p ->
      let r = admit_once p in
      insns.(i) <- r.insns;
      check i r ~first:true)
    corpus;
  let rng = Rng.create ~seed:(Int64.of_int seed) in
  let order = Array.init n Fun.id in
  let per_prog = Array.init n (fun _ -> Stats.create ()) in
  let all = Stats.create () and all_untraced = Stats.create () in
  let a = acc () in
  let spans = Report.span_log () in
  let dur = int_of_float (seconds *. 1e9) in
  (* with tracing on, the first 40% runs untraced, for the overhead *)
  let untraced_until = if trace && not layers_only then Report.now () + (dur * 2 / 5) else 0 in
  let gc0 = Gc.quick_stat () in
  let t_start = Report.now () in
  let t_end = t_start + dur in
  let admissions = ref 0 in
  while Report.now () < t_end do
    shuffle rng order;
    Array.iter
      (fun i ->
        if Report.now () < t_end then begin
          let p = corpus.(i) in
          let r = admit_once p in
          check i r ~first:false;
          let us = Report.us_of_ns (r.t_jit - r.t0) in
          if r.t0 < untraced_until then Stats.add all_untraced us
          else begin
            incr admissions;
            Stats.add per_prog.(i) us;
            Stats.add all us;
            record a p r;
            if trace && (not layers_only) && !admissions land 7 = 0 then begin
              let req = !admissions in
              let sp name parent start stop =
                Report.span spans ~req ~name ~parent ~start ~stop
              in
              sp "admit" "" r.t0 r.t_jit;
              sp "eclang.compile" "admit" r.t0 r.t_compile;
              sp "verifier.verify" "admit" r.t_compile r.t_verify;
              sp "kie.instrument" "admit" r.t_verify r.t_instrument;
              sp "jit.compile" "admit" r.t_instrument r.t_jit
            end
          end
        end)
      order
  done;
  let elapsed = Report.now () - (if trace then untraced_until else t_start) in
  let gc1 = Gc.quick_stat () in
  (* the GC counters span the untraced part too *)
  let kreq = float_of_int (Stdlib.max 1 (!admissions + Stats.count all_untraced)) /. 1e3 in
  let p s q = Stats.pct s q in
  Report.note rep "%d programs (%d shipped + %d fuzz), %d timed admissions, heavy = >= %d insns"
    n (n - fuzz_count) fuzz_count !admissions heavy_insns;
  if layers_only then report_layers rep a
  else begin
    (* end to end: a class's figure is the geometric mean, over its
       programs, of each program's median admission time — a percentile of
       the pooled times would jump between programs as the mix shifts *)
    let class_p50 heavy_class =
      let logs = ref 0.0 and k = ref 0 in
      Array.iteri
        (fun i s ->
          if (insns.(i) >= heavy_insns) = heavy_class && Stats.count s > 0 then begin
            logs := !logs +. log (Stats.pct s 0.50);
            incr k
          end)
        per_prog;
      if !k = 0 then 0.0 else exp (!logs /. float_of_int !k)
    in
    Report.add rep "setup_s" "s" setup_s;
    Report.add rep "p50_us.light" "us" (class_p50 false);
    Report.add rep "p50_us.heavy" "us" (class_p50 true);
    Report.add rep "sat_per_s" "1/s" (float_of_int !admissions /. Report.s_of_ns elapsed);
    Report.add rep "heap_peak_mb" "MB"
      (float_of_int (gc1.Gc.top_heap_words * 8) /. 1e6);
    (* pooled over every timed admission *)
    Report.add rep "admit_p50_ms" "ms" (p all 0.50 /. 1e3);
    Report.add rep "admit_p99_ms" "ms" (p all 0.99 /. 1e3);
    Report.add rep "admit_per_s" "1/s" (float_of_int !admissions /. Report.s_of_ns elapsed);
    Report.add rep "failed_frac" "frac"
      (float_of_int rep.Report.failed /. float_of_int (Stdlib.max 1 rep.Report.attempted));
    if trace then begin
      report_layers rep a;
      Report.add rep "gc.minor_per_kreq" "count/kreq"
        (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) /. kreq);
      Report.add rep "gc.major_per_kreq" "count/kreq"
        (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. kreq);
      let e2e = p all 0.50 in
      let sum =
        List.fold_left (fun s x -> s +. p x 0.50) 0.0 [ a.compile; a.verify_; a.instrument; a.jit ]
      in
      Report.add rep "closure.sum_us" "us" sum;
      Report.add rep "closure.e2e_p50_us" "us" e2e;
      Report.add rep "closure.ratio" "ratio" (if e2e > 0.0 then sum /. e2e else 0.0);
      Report.add rep "trace.overhead_us" "us" (e2e -. p all_untraced 0.50);
      Report.write_spans spans ~path:spans_path;
      Report.note rep "%d spans written to %s" spans.Report.rows spans_path
    end
  end
