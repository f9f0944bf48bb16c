(* The serve wire protocol: one JSON object per line, request and
   response.

   Requests carry a client-chosen [id] (string or number, echoed back
   verbatim), a [type] selecting the job kind, and kind-specific
   fields.  Parsing is strict where it protects the daemon (unknown
   type, missing source, absurd counts are rejected with an error row)
   and lenient where it costs nothing (unknown extra keys are ignored,
   so clients can tag jobs freely).

   This module only VALIDATES — it never runs anything, so a malformed
   job can be rejected and answered while the worker pool keeps
   chewing on its queue. *)

type run_spec = {
  r_source : string;
  r_argv : string list;
  r_scheme : Runner.scheme;
  r_engine : Interp.State.engine;
  r_max_steps : int option;
}

type fuzz_spec = { f_seed : int; f_count : int; f_shrink : bool }

type profile_spec = {
  p_source : string option;
  p_workload : string option;
  p_quick : bool;
}

type adv_spec = { a_seed : int; a_count : int }

type spec =
  | Run of run_spec
  | Fuzz of fuzz_spec
  | Profile of profile_spec
  | Adversarial of adv_spec

type job = {
  id : Json.t;  (** echoed back verbatim: [Str] or [Num] *)
  jtype : string;
  spec : spec;
  timeout_ms : int option;  (** wall-clock execution budget *)
}

(** Hard ceiling on one request line.  A line past this is answered
    with an error row without even being parsed — the reader must not
    buffer unbounded client input. *)
let max_line_bytes = 1 lsl 20

(** Per-request campaign ceiling: fuzz/adversarial jobs are metered in
    cases; a service request asking for more than this belongs in a
    batch run, not a shared daemon. *)
let max_campaign_count = 10_000

let spec_names = [ "run"; "fuzz"; "profile"; "adversarial" ]

(* ------------------------------------------------------------------ *)
(* Field readers                                                        *)
(* ------------------------------------------------------------------ *)

exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject m)) fmt

let opt_int v k =
  match Json.field v k with
  | None | Some Json.Null -> None
  | Some (Json.Num f) when Float.is_integer f -> Some (int_of_float f)
  | Some _ -> reject "field %S must be an integer" k

let opt_str v k =
  match Json.field v k with
  | None | Some Json.Null -> None
  | Some (Json.Str s) -> Some s
  | Some _ -> reject "field %S must be a string" k

let opt_bool v k =
  match Json.field v k with
  | None | Some Json.Null -> None
  | Some (Json.Bool b) -> Some b
  | Some _ -> reject "field %S must be a boolean" k

let str_list v k =
  match Json.field v k with
  | None | Some Json.Null -> []
  | Some (Json.List vs) ->
      List.map
        (function
          | Json.Str s -> s | _ -> reject "field %S must be a string array" k)
        vs
  | Some _ -> reject "field %S must be a string array" k

let campaign_count v ~default =
  let c = Option.value (opt_int v "count") ~default in
  if c < 1 then reject "count must be >= 1";
  if c > max_campaign_count then
    reject "count %d exceeds the per-request cap of %d" c max_campaign_count;
  c

(* ------------------------------------------------------------------ *)
(* Scheme / engine selection                                            *)
(* ------------------------------------------------------------------ *)

let scheme_of_fields v : Runner.scheme =
  let mode =
    match opt_str v "mode" with
    | None | Some "full" -> Softbound.Config.Full_checking
    | Some "store-only" -> Softbound.Config.Store_only
    | Some m -> reject "unknown mode %S (full|store-only)" m
  in
  let facility =
    match opt_str v "facility" with
    | None -> Softbound.Config.Shadow_space
    | Some f -> (
        match List.assoc_opt f Softbound.Config.facility_inputs with
        | Some f -> f
        | None ->
            reject "unknown facility %S (%s)" f
              (String.concat "|"
                 (List.map fst Softbound.Config.facility_inputs)))
  in
  let no_elim = Option.value (opt_bool v "no_elim") ~default:false in
  match opt_str v "scheme" with
  | None | Some "softbound" ->
      Runner.Softbound
        {
          Softbound.Config.default with
          mode;
          facility;
          eliminate_checks = not no_elim;
        }
  | Some "unprotected" -> Runner.Unprotected
  | Some s -> (
      match Schemes.find s with
      | Some e -> Runner.Scheme e
      | None ->
          reject "unknown scheme %S (%s)" s
            (String.concat "|"
               ("softbound" :: "unprotected" :: Schemes.names ())))

let engine_of_fields v : Interp.State.engine =
  match opt_str v "engine" with
  | None -> Interp.State.default_config.Interp.State.engine
  | Some s -> (
      match Interp.State.engine_of_string s with
      | Some e -> e
      | None -> reject "unknown engine %S (closure|decode)" s)

(* ------------------------------------------------------------------ *)
(* Request parsing                                                      *)
(* ------------------------------------------------------------------ *)

let spec_of v : string * spec =
  match opt_str v "type" with
  | None -> reject "missing field \"type\" (%s)" (String.concat "|" spec_names)
  | Some "run" ->
      let source =
        match opt_str v "source" with
        | Some s -> s
        | None -> reject "run job needs a \"source\" string"
      in
      ( "run",
        Run
          {
            r_source = source;
            r_argv = str_list v "argv";
            r_scheme = scheme_of_fields v;
            r_engine = engine_of_fields v;
            r_max_steps = opt_int v "max_steps";
          } )
  | Some "fuzz" ->
      ( "fuzz",
        Fuzz
          {
            f_seed = Option.value (opt_int v "seed") ~default:1;
            f_count = campaign_count v ~default:10;
            f_shrink = Option.value (opt_bool v "shrink") ~default:false;
          } )
  | Some "profile" ->
      let source = opt_str v "source" and workload = opt_str v "workload" in
      if source = None && workload = None then
        reject "profile job needs \"source\" or \"workload\"";
      ( "profile",
        Profile
          {
            p_source = source;
            p_workload = workload;
            p_quick = Option.value (opt_bool v "quick") ~default:true;
          } )
  | Some "adversarial" ->
      ( "adversarial",
        Adversarial
          {
            a_seed = Option.value (opt_int v "seed") ~default:1;
            a_count = campaign_count v ~default:5;
          } )
  | Some t ->
      reject "unknown job type %S (%s)" t (String.concat "|" spec_names)

(** Parse one request line.  [Error (id, msg)] carries whatever id
    could still be recovered (so the error row reaches the right job)
    — [Json.Null] when the line was not even an object. *)
let parse_job (line : string) : (job, Json.t * string) result =
  if String.length line > max_line_bytes then
    Error
      ( Json.Null,
        Printf.sprintf "oversized request: line exceeds the %d-byte limit"
          max_line_bytes )
  else
    match Json.parse line with
    | exception Json.Bad m -> Error (Json.Null, "malformed JSON: " ^ m)
    | v -> (
        let id =
          match Json.field v "id" with
          | Some (Json.Str _ as id) | Some (Json.Num _ as id) -> Some id
          | Some _ | None -> None
        in
        match id with
        | None -> Error (Json.Null, "missing or non-scalar \"id\"")
        | Some id -> (
            match
              let jtype, spec = spec_of v in
              let timeout_ms =
                match opt_int v "timeout_ms" with
                | Some t when t < 1 -> reject "timeout_ms must be >= 1"
                | t -> t
              in
              { id; jtype; spec; timeout_ms }
            with
            | job -> Ok job
            | exception Reject m -> Error (id, m)))
