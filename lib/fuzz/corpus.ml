open Kflex_bpf

type t = {
  oracle : string option;
  config : Oracle.config;
  prog : Prog.t;
  prog2 : Prog.t option;
}

let magic = "kflex-fuzz-repro v1"

let to_hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let of_hex s =
  if String.length s mod 2 <> 0 then failwith "corpus: odd hex length";
  String.init (String.length s / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let write path ?oracle ?prog2 (cfg : Oracle.config) prog =
  let oc = open_out path in
  let pr fmt = Printf.fprintf oc fmt in
  pr "%s\n" magic;
  (match oracle with Some o -> pr "oracle %s\n" o | None -> ());
  pr "heap_size 0x%Lx\n" cfg.heap_size;
  pr "kbase 0x%Lx\n" cfg.kbase;
  pr "pages %s\n" (String.concat "," (List.map string_of_int cfg.pages));
  pr "port %d\n" cfg.port;
  pr "prandom 0x%Lx\n" cfg.prandom;
  pr "src_port %d\n" cfg.src_port;
  pr "dst_port %d\n" cfg.dst_port;
  pr "quantum %d\n" cfg.quantum;
  pr "insn_budget %d\n" cfg.insn_budget;
  pr "inject_cap %d\n" cfg.inject_cap;
  pr "payload %s\n" (to_hex cfg.payload);
  pr "prog %s\n" (to_hex (Encode.encode prog));
  (match prog2 with
  | Some p -> pr "prog2 %s\n" (to_hex (Encode.encode p))
  | None -> ());
  close_out oc

let read path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines =
    List.rev !lines |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | m :: rest when String.trim m = magic ->
      let oracle = ref None
      and cfg = ref Oracle.default_config
      and prog = ref None
      and prog2 = ref None in
      List.iter
        (fun line ->
          match String.index_opt line ' ' with
          | None -> failwith ("corpus: bad line in " ^ path ^ ": " ^ line)
          | Some i -> (
              let k = String.sub line 0 i in
              let v =
                String.trim
                  (String.sub line (i + 1) (String.length line - i - 1))
              in
              match k with
              | "oracle" -> oracle := Some v
              | "heap_size" -> cfg := { !cfg with heap_size = Int64.of_string v }
              | "kbase" -> cfg := { !cfg with kbase = Int64.of_string v }
              | "pages" ->
                  let pages =
                    if v = "" then []
                    else
                      String.split_on_char ',' v |> List.map int_of_string
                  in
                  cfg := { !cfg with pages }
              | "port" -> cfg := { !cfg with port = int_of_string v }
              | "prandom" -> cfg := { !cfg with prandom = Int64.of_string v }
              | "src_port" -> cfg := { !cfg with src_port = int_of_string v }
              | "dst_port" -> cfg := { !cfg with dst_port = int_of_string v }
              | "quantum" -> cfg := { !cfg with quantum = int_of_string v }
              | "insn_budget" ->
                  cfg := { !cfg with insn_budget = int_of_string v }
              | "inject_cap" ->
                  cfg := { !cfg with inject_cap = int_of_string v }
              | "payload" -> cfg := { !cfg with payload = of_hex v }
              | "prog" -> prog := Some (Encode.decode (of_hex v))
              | "prog2" -> prog2 := Some (Encode.decode (of_hex v))
              | _ -> failwith ("corpus: unknown key in " ^ path ^ ": " ^ k)))
        rest;
      let prog =
        match !prog with
        | Some p -> p
        | None -> failwith ("corpus: missing prog in " ^ path)
      in
      { oracle = !oracle; config = !cfg; prog; prog2 = !prog2 }
  | _ -> failwith ("corpus: bad magic in " ^ path)

let replay t =
  match (t.oracle, t.prog2) with
  | _, Some p2 -> Oracle.chain_equiv t.config t.prog p2
  | Some "shared", None -> (
      (* shared-oracle reproducers replay through the sharded-vs-reference
         comparison first, then the ordinary single-program oracles *)
      match Oracle.shared_equiv t.config t.prog with
      | Oracle.Pass | Oracle.Rejected _ ->
          Oracle.run_case t.config t.prog
      | fail -> fail)
  | _, None -> Oracle.run_case t.config t.prog
