(* Minimal JSON: a recursive-descent parser, a compact emitter and an
   indented one.

   Shared by every harness component that speaks JSON — the simulated
   experiments (writing the committed BENCH_*.json files with
   [pretty]), [Bench_check] (reading them back), and the [serve]
   protocol (one request and one response object per line).  No
   external dependency: the toolchain image carries no JSON library,
   and the subset needed here — objects, arrays, strings, numbers, booleans, null — is small
   enough to keep in one file.

   The emitter is deterministic: keys print in the order the caller
   lists them, numbers print integral values without a fractional part,
   and strings escape exactly the control characters the parser
   understands — so a parse/print round trip of emitter output is the
   identity, which the serve smoke test relies on. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance (); Buffer.contents b
      | '\\' -> (
          advance ();
          let c = peek () in
          advance ();
          match c with
          | 'n' -> Buffer.add_char b '\n'; go ()
          | 't' -> Buffer.add_char b '\t'; go ()
          | 'r' -> Buffer.add_char b '\r'; go ()
          | 'b' -> Buffer.add_char b '\b'; go ()
          | 'f' -> Buffer.add_char b '\012'; go ()
          | 'u' ->
              (* keep the escape verbatim; key comparisons are ASCII *)
              Buffer.add_string b "\\u";
              go ()
          | c -> Buffer.add_char b c; go ())
      | '\255' -> fail "unterminated string"
      | c -> advance (); Buffer.add_char b c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while is_num (peek ()) do advance () done;
    let lit = String.sub s start (!pos - start) in
    match float_of_string_opt lit with
    | Some f -> Num f
    | None -> fail ("bad number " ^ lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ((k, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); List [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements (v :: acc)
            | ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elements []
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | c when c = '-' || (c >= '0' && c <= '9') -> parse_number ()
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Emission                                                             *)
(* ------------------------------------------------------------------ *)

let escape (s : string) : string =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let number_string (f : float) : string =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let to_string (v : t) : string =
  let b = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> Buffer.add_string b (number_string f)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | List vs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            emit v)
          vs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            emit v)
          kvs;
        Buffer.add_char b '}'
  in
  emit v;
  Buffer.contents b

(** Indented form for committed artifact files: a container whose
    members are all scalars prints on one line, any other container
    prints one member per line.  Parses back to the same tree. *)
let pretty (v : t) : string =
  let b = Buffer.create 4096 in
  let rec emit indent v =
    let open_, close, members =
      match v with
      | List vs -> ("[", "]", List.map (fun v -> ("", v)) vs)
      | Obj kvs ->
          ("{", "}", List.map (fun (k, v) -> (to_string (Str k) ^ ": ", v)) kvs)
      | v -> ("", to_string v, [])
    in
    let nested = function _, (List _ | Obj _) -> true | _ -> false in
    let inner = indent ^ "  " in
    let sep, pad, last =
      if List.exists nested members then
        (",\n" ^ inner, "\n" ^ inner, "\n" ^ indent)
      else (", ", " ", " ")
    in
    Buffer.add_string b open_;
    if members <> [] then Buffer.add_string b pad;
    List.iteri
      (fun i (key, v) ->
        if i > 0 then Buffer.add_string b sep;
        Buffer.add_string b key;
        emit inner v)
      members;
    if members <> [] then Buffer.add_string b last;
    Buffer.add_string b close
  in
  emit "" v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let field (v : t) (k : string) : t option =
  match v with Obj kvs -> List.assoc_opt k kvs | _ -> None

let str_field v k =
  match field v k with Some (Str s) -> Some s | _ -> None

let num_field v k =
  match field v k with Some (Num f) -> Some f | _ -> None

let int_field v k = Option.map int_of_float (num_field v k)

let bool_field v k =
  match field v k with Some (Bool b) -> Some b | _ -> None

let list_field v k =
  match field v k with Some (List vs) -> Some vs | _ -> None

(** Convenience constructors for row emission. *)
let int (n : int) : t = Num (float_of_int n)

let ms (seconds : float) : t = Num (Float.round (seconds *. 1e6) /. 1e3)

(** A ratio rounded to 4 decimals, as the artifact files record it. *)
let ratio (x : float) : t = Num (float_of_string (Printf.sprintf "%.4f" x))
