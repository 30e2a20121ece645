type token = INT of int64 | IDENT of string | KW of string | PUNCT of string | EOF

type t = { tok : token; line : int }

exception Error of { line : int; msg : string }

let is_keyword = function
  | "struct" | "global" | "fn" | "var" | "if" | "else" | "while" | "for"
  | "return" | "break" | "continue" | "null" | "new" | "free" | "bytes" ->
      true
  | _ -> false

let puncts =
  (* longest first *)
  [ "<<="; ">>="; "+="; "-="; "*="; "/="; "%="; "&="; "|="; "^=";
    "<<"; ">>"; "<="; ">="; "=="; "!="; "&&"; "||"; "->";
    "+"; "-"; "*"; "/"; "%"; "&"; "|"; "^"; "~"; "!"; "<"; ">"; "=";
    "("; ")"; "{"; "}"; "["; "]"; ";"; ":"; ","; "." ]

(* whether [p] occurs in [src] at [i], compared in place *)
let rec occurs_at src i p k =
  k = String.length p
  || i + k < String.length src
     && src.[i + k] = p.[k]
     && occurs_at src i p (k + 1)

(* the literal in [src.[start..stop-1]] without its '_' separators *)
let digits src start stop =
  let s = String.sub src start (stop - start) in
  if String.contains s '_' then String.concat "" (String.split_on_char '_' s)
  else s

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let pp_token ppf = function
  | INT i -> Format.fprintf ppf "%Ld" i
  | IDENT s -> Format.fprintf ppf "identifier %s" s
  | KW s -> Format.fprintf ppf "keyword %s" s
  | PUNCT s -> Format.fprintf ppf "'%s'" s
  | EOF -> Format.pp_print_string ppf "end of input"

let tokenize src =
  let n = String.length src in
  let line = ref 1 in
  let toks = ref [] in
  let i = ref 0 in
  let fail msg = raise (Error { line = !line; msg }) in
  let push tok = toks := { tok; line = !line } :: !toks in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin incr line; incr i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      let closed = ref false in
      i := !i + 2;
      while not !closed do
        if !i + 1 >= n then fail "unterminated comment"
        else if src.[!i] = '*' && src.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else begin
          if src.[!i] = '\n' then incr line;
          incr i
        end
      done
    end
    else if is_digit c then begin
      let start = !i in
      if c = '0' && !i + 1 < n && (src.[!i + 1] = 'x' || src.[!i + 1] = 'X')
      then begin
        i := !i + 2;
        while !i < n && (is_hex src.[!i] || src.[!i] = '_') do incr i done;
        let s = digits src start !i in
        match Int64.of_string_opt s with
        | Some v -> push (INT v)
        | None -> fail ("bad hex literal " ^ s)
      end
      else begin
        while !i < n && (is_digit src.[!i] || src.[!i] = '_') do incr i done;
        let s = digits src start !i in
        match Int64.of_string_opt s with
        | Some v -> push (INT v)
        | None -> fail ("bad integer literal " ^ s)
      end
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident src.[!i] do incr i done;
      let s = String.sub src start (!i - start) in
      if is_keyword s then push (KW s) else push (IDENT s)
    end
    else begin
      let at = !i in
      let matched = List.find_opt (fun p -> occurs_at src at p 0) puncts in
      match matched with
      | Some p ->
          push (PUNCT p);
          i := !i + String.length p
      | None -> fail (Printf.sprintf "unexpected character %C" c)
    end
  done;
  push EOF;
  List.rev !toks
