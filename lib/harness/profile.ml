(* Single-run check-level profiling: instrument a module, run it with
   the observability collector on, and assemble a report attributing
   executed checks / metadata operations (and their cycle deltas) to
   transform-time site ids, wrapper calls, per-segment cache traffic,
   and the static site census (assigned / surviving / elided).

   The [softbound_cli profile] subcommand is a thin shell around this
   module. *)

module Ir = Sbir.Ir
module S = Interp.State

type t = {
  label : string;
  opts : Softbound.Config.options;
  sites_assigned : int;  (** ids handed out by the transformation *)
  sites : Obs.site_info list;  (** surviving sites, ascending id *)
  widened : int;
      (** static count of loop-widened span checks Elim emitted *)
  coalesced : int;
      (** static count of per-iteration checks folded into in-block
          coalesced spans (members beyond the first) *)
  passes : (string * int) list;
      (** static instructions each Elim sub-pass removed, in pass order;
          empty with elimination off *)
  base : Interp.Vm.result option;  (** unprotected baseline run *)
  result : Interp.Vm.result;  (** the instrumented run *)
}

let profile ?(label = "program") ?(opts = Softbound.Config.default)
    ?(cfg = S.default_config) ?(argv = []) ?(inputs = [])
    ?(with_baseline = true) (m : Ir.modul) : t =
  let m', sites_assigned = Runner.instrument_cached ~opts m in
  let cfg = { cfg with S.argv; inputs; obs_enabled = true } in
  let base = if with_baseline then Some (Interp.Engine.run ~cfg m) else None in
  let result = Interp.Engine.run ~cfg:(Softbound.vm_config ~cfg opts) m' in
  let widened = ref 0 and coalesced = ref 0 in
  Ir.iter_funcs m' (fun f ->
      widened := !widened + Softbound.Elim.count_widened f;
      coalesced := !coalesced + Softbound.Elim.count_coalesced f);
  {
    label;
    opts;
    sites_assigned;
    sites = Obs.sites_of_modul m';
    widened = !widened;
    coalesced = !coalesced;
    passes =
      (if opts.Softbound.Config.eliminate_checks then
         Softbound.Transform.pass_stats ~opts m
       else []);
    base;
    result;
  }

(* ------------------------------------------------------------------ *)
(* Derived figures                                                      *)
(* ------------------------------------------------------------------ *)

(** Cycles recorded at transform-time sites of kind [k] — excludes the
    runtime-originated site-0 bucket, which the wrapper accounting
    already covers (so the breakdown partition does not double-count). *)
let site_kind_cycles (o : Obs.t) k =
  Obs.kind_cycles o k - Obs.site_cycles o k 0

let site_kind_count (o : Obs.t) k =
  Obs.kind_count o k - Obs.site_count o k 0

let check_cycles (p : t) =
  let o = p.result.Interp.Vm.obs in
  site_kind_cycles o Obs.KCheck + site_kind_cycles o Obs.KCheckFptr

let meta_cycles (p : t) =
  let o = p.result.Interp.Vm.obs in
  site_kind_cycles o Obs.KMetaLoad + site_kind_cycles o Obs.KMetaStore

let wrapper_cycles (p : t) = Obs.wrapper_cycles p.result.Interp.Vm.obs

let total_cycles (p : t) = p.result.Interp.Vm.stats.S.cycles

let base_cycles (p : t) =
  match p.base with
  | Some b -> Some b.Interp.Vm.stats.S.cycles
  | None -> None

(** Overhead cycles not attributed to checks, metadata operations, or
    wrappers: memory-system effects (cache pressure from metadata
    traffic on program accesses), metadata-propagation moves, and the
    extended calling convention.  Meaningless without a baseline. *)
let residual_cycles (p : t) =
  match base_cycles p with
  | None -> None
  | Some b ->
      Some
        (total_cycles p - b - check_cycles p - meta_cycles p
        - wrapper_cycles p)

let attributed_fraction (p : t) =
  Obs.attributed_fraction p.result.Interp.Vm.obs

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let render ?(top = 10) (p : t) : string =
  let buf = Buffer.create 4096 in
  let o = p.result.Interp.Vm.obs in
  let st = p.result.Interp.Vm.stats in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "profile: %s  [%s/%s%s]\n" p.label
    (Softbound.Config.mode_name p.opts.Softbound.Config.mode)
    (Softbound.Config.facility_name p.opts.Softbound.Config.facility)
    (if p.opts.Softbound.Config.eliminate_checks then "" else ", no-elim");
  add "outcome: %s\n" (S.string_of_outcome p.result.Interp.Vm.outcome);
  (match base_cycles p with
  | Some b when b > 0 ->
      add "cycles: %d (baseline %d, overhead %s)\n" (total_cycles p) b
        (pct (float_of_int (total_cycles p - b) /. float_of_int b))
  | _ -> add "cycles: %d\n" (total_cycles p));
  let surviving = List.length p.sites in
  add "sites: %d assigned, %d surviving, %d elided by Elim\n"
    p.sites_assigned surviving
    (p.sites_assigned - surviving);
  if p.opts.Softbound.Config.eliminate_checks then begin
    add "widening: %d checks_widened, %d checks_coalesced\n" p.widened
      p.coalesced;
    add "elim passes (static instructions removed): %s\n"
      (String.concat ", "
         (List.map (fun (n, k) -> Printf.sprintf "%s %d" n k) p.passes))
  end;
  add "\nper-kind dynamic counts (site-attributed + runtime):\n";
  List.iter
    (fun k ->
      add "  %-11s %10d ops  %12d cycles   (+ runtime: %d ops, %d cycles)\n"
        (Obs.kind_name k)
        (site_kind_count o k) (site_kind_cycles o k)
        (Obs.site_count o k 0) (Obs.site_cycles o k 0))
    Obs.all_kinds;
  let site_a, wrap_a, rt_a = Obs.attribution o in
  add
    "attribution: %d site / %d wrapper-context / %d runtime  (%s attributed)\n"
    site_a wrap_a rt_a
    (pct (attributed_fraction p));
  (* hottest sites *)
  let info =
    let h = Hashtbl.create 64 in
    List.iter (fun (si : Obs.site_info) -> Hashtbl.replace h si.Obs.si_id si)
      p.sites;
    h
  in
  let hot =
    Obs.per_site o
    |> List.filter (fun (s, _, _) -> s > 0)
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
    |> List.filteri (fun i _ -> i < top)
  in
  if hot <> [] then begin
    add "\nhottest sites (by attributed cycles):\n";
    List.iter
      (fun (s, c, cy) ->
        let where =
          match Hashtbl.find_opt info s with
          | Some si ->
              Printf.sprintf "%s B%d %s" si.Obs.si_func si.Obs.si_block
                (Obs.kind_name si.Obs.si_kind)
          | None -> "(elided?)"
        in
        add "  site %-5d %10d ops  %12d cycles   %s\n" s c cy where)
      hot
  end;
  let wr = Obs.wrapper_stats o in
  if wr <> [] then begin
    add "\nwrapper calls (cycles of their checks and metadata operations):\n";
    List.iter
      (fun (n, c, cy) -> add "  %-24s %8d calls  %12d cycles\n" n c cy)
      wr
  end;
  add "\nmetadata table: %d probes, %d resizes\n" st.S.ht_probes
    st.S.ht_resizes;
  add "\ncache accesses by segment (hit/miss):\n";
  List.iter
    (fun (name, h, m) ->
      if h + m > 0 then
        add "  %-10s %12d / %-12d (%s hit)\n" name h m
          (pct (float_of_int h /. float_of_int (h + m))))
    (Obs.seg_stats o);
  (match residual_cycles p with
  | Some r ->
      add "\noverhead breakdown: check %d, metadata %d, wrapper %d, \
           residual %d cycles\n"
        (check_cycles p) (meta_cycles p) (wrapper_cycles p) r
  | None -> ());
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON export                                                          *)
(* ------------------------------------------------------------------ *)

let to_json (p : t) : string =
  let buf = Buffer.create 4096 in
  let o = p.result.Interp.Vm.obs in
  let st = p.result.Interp.Vm.stats in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n  \"profile\": \"%s\",\n" p.label;
  add "  \"mode\": \"%s\",\n  \"facility\": \"%s\",\n  \"elim\": %b,\n"
    (Softbound.Config.mode_name p.opts.Softbound.Config.mode)
    (Softbound.Config.facility_name p.opts.Softbound.Config.facility)
    p.opts.Softbound.Config.eliminate_checks;
  add "  \"outcome\": \"%s\",\n"
    (String.escaped (S.string_of_outcome p.result.Interp.Vm.outcome));
  add "  \"cycles\": %d,\n" (total_cycles p);
  (match base_cycles p with
  | Some b -> add "  \"base_cycles\": %d,\n" b
  | None -> ());
  let surviving = List.length p.sites in
  add
    "  \"sites\": { \"assigned\": %d, \"surviving\": %d, \"elided\": %d },\n"
    p.sites_assigned surviving
    (p.sites_assigned - surviving);
  add "  \"widening\": { \"checks_widened\": %d, \"checks_coalesced\": %d },\n"
    p.widened p.coalesced;
  add "  \"elim_passes\": { %s },\n"
    (String.concat ", "
       (List.map (fun (n, k) -> Printf.sprintf "\"%s\": %d" n k) p.passes));
  add "  \"kinds\": {\n";
  List.iteri
    (fun i k ->
      add
        "    \"%s\": { \"ops\": %d, \"cycles\": %d, \"runtime_ops\": %d, \
         \"runtime_cycles\": %d }%s\n"
        (Obs.kind_name k) (site_kind_count o k) (site_kind_cycles o k)
        (Obs.site_count o k 0) (Obs.site_cycles o k 0)
        (if i = List.length Obs.all_kinds - 1 then "" else ","))
    Obs.all_kinds;
  add "  },\n";
  let site_a, wrap_a, rt_a = Obs.attribution o in
  add
    "  \"attribution\": { \"site\": %d, \"wrapper\": %d, \"runtime\": %d, \
     \"fraction\": %.4f },\n"
    site_a wrap_a rt_a (attributed_fraction p);
  add "  \"wrappers\": [";
  let wr = Obs.wrapper_stats o in
  List.iteri
    (fun i (n, c, cy) ->
      add "%s\n    { \"name\": \"%s\", \"calls\": %d, \"cycles\": %d }"
        (if i = 0 then "" else ",")
        n c cy)
    wr;
  add "%s],\n" (if wr = [] then "" else "\n  ");
  add "  \"hashtable\": { \"probes\": %d, \"resizes\": %d },\n" st.S.ht_probes
    st.S.ht_resizes;
  add "  \"cache_segments\": {\n";
  let segs = Obs.seg_stats o in
  List.iteri
    (fun i (name, h, m) ->
      add "    \"%s\": { \"hits\": %d, \"misses\": %d }%s\n" name h m
        (if i = List.length segs - 1 then "" else ","))
    segs;
  add "  },\n";
  add "  \"breakdown_cycles\": { \"check\": %d, \"metadata\": %d, \
       \"wrapper\": %d%s }\n"
    (check_cycles p) (meta_cycles p) (wrapper_cycles p)
    (match residual_cycles p with
    | Some r -> Printf.sprintf ", \"residual\": %d" r
    | None -> "");
  add "}\n";
  Buffer.contents buf
