(* The two checking-service workloads, driven through [Serve.serve]'s
   read/write interface in-process with one worker per CPU:

   - [serve-fresh]: every job is a [run] of a program no job has sent
     before ([Fuzz.case_of] printed back to MiniC, about 30% carrying
     an injected out-of-bounds access), so every job misses the source,
     transform and closure caches;
   - [serve-repeat]: jobs cycle through a fixed set of short programs
     with hand-checked exit codes, fewer than the smallest cache holds,
     so after first sight every job hits all three caches.

   Each run has a flood phase (closed loop: the reader is held back only
   by the daemon's bounded queue, [cap] jobs outstanding), timed as
   fixed-size batches, then an open-loop phase at a fixed offered rate
   whose latencies count from each job's due time.  The [write]
   callback only timestamps and keeps each row; rows are parsed after
   the session ends. *)

module J = Harness.Json
module R = Harness.Runner
module M = Measure

type expect = Exits | Exit_code of int | Traps
type kind = Fresh | Repeat

(* Short programs with hand-checked answers; the ones that allocate
   stand in for Olden-style pointer code, the rest for SPEC-style
   array code.  Two must trap. *)
let repeat_set =
  [
    ( "int main() { int a[10]; int i; int s = 0; for (i = 0; i < 10; i++) \
       a[i] = i; for (i = 0; i < 10; i++) s += a[i]; return s; }",
      Exit_code 45 );
    ( "void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; } int main() \
       { int x = 3; int y = 7; swap(&x, &y); return x * 10 + y; }",
      Exit_code 73 );
    ( "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); \
       } int main() { return fib(12); }",
      Exit_code 144 );
    ( "int main() { char s[16]; strcpy(s, \"checking\"); return strlen(s); }",
      Exit_code 8 );
    ( "int main() { int m[4][4]; int i; int j; for (i = 0; i < 4; i++) for \
       (j = 0; j < 4; j++) m[i][j] = i * j; return m[3][3] + m[2][3]; }",
      Exit_code 15 );
    ( "struct pt { int x; int y; }; int main() { struct pt p[3]; int i; for \
       (i = 0; i < 3; i++) { p[i].x = i; p[i].y = 2 * i; } return p[2].x + \
       p[2].y + p[1].y; }",
      Exit_code 8 );
    ( "int main() { int a[8]; int i; int j; int t; for (i = 0; i < 8; i++) \
       a[i] = (i * 5) % 8; for (i = 0; i < 8; i++) for (j = 0; j + 1 < 8 - \
       i; j++) if (a[j] > a[j + 1]) { t = a[j]; a[j] = a[j + 1]; a[j + 1] = \
       t; } return a[0] * 10 + a[7]; }",
      Exit_code 7 );
    ( "typedef struct node { int v; struct node *next; } node; int main() { \
       node *h = NULL; node *n; int i; int s = 0; for (i = 1; i <= 5; i++) { \
       n = (node*)malloc(sizeof(node)); n->v = i; n->next = h; h = n; } \
       while (h != NULL) { s += h->v; n = h->next; free(h); h = n; } return \
       s; }",
      Exit_code 15 );
    ( "typedef struct tree { int key; struct tree *l; struct tree *r; } tree; \
       tree *ins(tree *t, int k) { if (t == NULL) { t = \
       (tree*)malloc(sizeof(tree)); t->key = k; t->l = NULL; t->r = NULL; \
       return t; } if (k < t->key) t->l = ins(t->l, k); else t->r = \
       ins(t->r, k); return t; } int depth(tree *t) { int a; int b; if (t == \
       NULL) return 0; a = depth(t->l); b = depth(t->r); return 1 + (a > b ? \
       a : b); } int main() { tree *t = NULL; int i; for (i = 0; i < 7; i++) \
       t = ins(t, (i * 3) % 7); return depth(t) * 10 + t->key; }",
      Exit_code 50 );
    ( "int main() { int *p = (int*)malloc(8 * sizeof(int)); int i; int s = 0; \
       for (i = 0; i < 8; i++) p[i] = i * i; for (i = 0; i < 8; i++) s += \
       p[i]; free(p); return s; }",
      Exit_code 140 );
    ( "typedef struct pair { int *data; int n; } pair; int total(pair *q) { \
       int i; int s = 0; for (i = 0; i < q->n; i++) s += q->data[i]; return \
       s; } int main() { pair q; int i; q.n = 6; q.data = (int*)malloc(6 * \
       sizeof(int)); for (i = 0; i < 6; i++) q.data[i] = i + 1; return \
       total(&q); }",
      Exit_code 21 );
    ( "int main() { int a[4]; int i; for (i = 0; i <= 4; i++) a[i] = i; \
       return a[0]; }",
      Traps );
    ( "int main() { int *p = (int*)malloc(4 * sizeof(int)); p[0] = 1; return \
       p[4]; }",
      Traps );
  ]

let allocates src =
  let rec go i =
    i + 6 <= String.length src && (String.sub src i 6 = "malloc" || go (i + 1))
  in
  go 0

let line_of id src =
  J.to_string
    (J.Obj [ ("id", J.int id); ("type", J.Str "run"); ("source", J.Str src) ])

type job = { id : int; src : string; expect : expect; line : string }

(** The job stream: job [k] for every [k >= 0], a function of the seed
    alone. *)
let stream kind ~seed : int -> job =
  match kind with
  | Fresh ->
      fun k ->
        let c = Fuzz.case_of ~seed ~index:k in
        let src = Cminus.Pretty.program_string c.Fuzz.Gen.prog in
        let expect =
          if c.Fuzz.Gen.expect = Fuzz.Gen.Safe then Exits else Traps
        in
        { id = k; src; expect; line = line_of k src }
  | Repeat ->
      let set = Array.of_list (M.shuffle seed repeat_set) in
      fun k ->
        let src, expect = set.(k mod Array.length set) in
        { id = k; src; expect; line = line_of k src }

(* ------------------------------------------------------------------ *)
(* One daemon session                                                   *)
(* ------------------------------------------------------------------ *)

type row = {
  t : float;  (** when the daemon handed the row to [write] *)
  ok : bool;
  outcome : string;
  exit_code : int option;
  ms : float;  (** the row's own service time *)
  cycles : int;
}

type session = {
  jobs : job array;
  submit : float array;  (** when [read] handed each job over *)
  rows : row option array;  (** by job position *)
  wall : float;
  raw_rows : string list;  (** the rows as the daemon wrote them *)
}

(** Serve [jobs] through one daemon session.  With [due], [read] holds
    job [i] back until [due.(i)] (open loop); without, it hands jobs
    over as fast as the bounded queue takes them (closed loop).  Rows
    are checked against each job's expected verdict: exactly one row per
    id, [ok], and the right exit code or trap. *)
let session ?due (r : M.result) ~width ~cap (jobs : job array) =
  let n = Array.length jobs in
  let submit = Array.make n 0.0 in
  let raw = ref [] in
  let next = ref 0 in
  let read () =
    if !next >= n then None
    else begin
      let i = !next in
      incr next;
      (match due with
      | Some d ->
          let wait = d.(i) -. M.now () in
          if wait > 0.0 then Unix.sleepf wait
      | None -> ());
      let t = M.now () in
      submit.(i) <- t;
      Some jobs.(i).line
    end
  in
  (* called under the pool's emit lock *)
  let write line =
    raw := (M.now (), line) :: !raw
  in
  let t0 = M.now () in
  ignore (Harness.Serve.serve ~jobs:width ~cap ~read ~write ());
  let wall = M.now () -. t0 in
  let first = if n = 0 then 0 else jobs.(0).id in
  let rows = Array.make n None and seen = Array.make n 0 in
  let stray = ref 0 in
  List.iter
    (fun (t, line) ->
      match J.parse line with
      | exception J.Bad _ -> incr stray
      | v -> (
          match J.int_field v "id" with
          | Some id when id - first >= 0 && id - first < n ->
              let i = id - first in
              seen.(i) <- seen.(i) + 1;
              let str k = Option.value (J.str_field v k) ~default:"" in
              rows.(i) <-
                Some
                  {
                    t;
                    ok = J.bool_field v "ok" = Some true;
                    outcome = str "outcome" ^ str "error";
                    exit_code = J.int_field v "exit_code";
                    ms = Option.value (J.num_field v "ms") ~default:0.0;
                    cycles = Option.value (J.int_field v "cycles") ~default:0;
                  }
          | _ -> incr stray))
    !raw;
  M.check r (!stray = 0) (fun () ->
      Printf.sprintf "%d rows without a job" !stray);
  Array.iteri
    (fun i j ->
      let verdict_ok (x : row) =
        x.ok
        &&
        match j.expect with
        | Exits -> x.exit_code <> None
        | Exit_code c -> x.exit_code = Some c
        | Traps ->
            String.starts_with ~prefix:"SoftBound: bounds violation" x.outcome
      in
      M.check r
        (seen.(i) = 1
        && match rows.(i) with Some x -> verdict_ok x | None -> false)
        (fun () ->
          Printf.sprintf "job %d: %d rows, %s" j.id seen.(i)
            (match rows.(i) with Some x -> x.outcome | None -> "no row")))
    jobs;
  { jobs; submit; rows; wall; raw_rows = List.map snd !raw }

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)
(* ------------------------------------------------------------------ *)

type params = {
  batch : int;  (** jobs per timed flood batch *)
  flood_share : float;  (** of [--seconds]; the open loop gets the rest *)
  stock : int;  (** jobs generated in setup *)
  rate : float;  (** open-loop offered jobs per second *)
}

(* The open-loop rates were calibrated once and are frozen here, never
   derived from the run being measured: about a fifth of the flood
   throughput at width 2 on the 2-CPU host they were calibrated on, so
   that a slow spell on a shared host does not tip the open loop into
   queueing. *)
let params = function
  | Fresh -> { batch = 80; flood_share = 0.5; stock = 4000; rate = 30.0 }
  | Repeat -> { batch = 1000; flood_share = 0.6; stock = 0; rate = 600.0 }

let cap = 128

type state = {
  kind : kind;
  gen : int -> job;
  stock : job array;
  mutable next : int;
  digest : string;
}

(** Generate the job stock (serve-fresh), or fill the source, transform
    and closure caches by running each program of the set once
    (serve-repeat).  The fill runs on this domain, not through a daemon
    session: a 13-job session is mostly domain spawning and scheduling,
    and its time spread by a third of its median from process to
    process. *)
let setup kind ~seed =
  let gen = stream kind ~seed in
  let p = params kind in
  let stock = Array.init p.stock gen in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat "\n" (List.init 200 (fun k -> (gen k).line))))
  in
  let st = { kind; gen; stock; next = 0; digest } in
  (if kind = Repeat then
     List.iter
       (fun (src, _) ->
         ignore
           (R.run (R.Softbound R.sb_full_shadow) (R.compile_source_cached src)))
       repeat_set);
  st

(** The next [n] jobs of the stream: from the stock while it lasts. *)
let take st n =
  Array.init n (fun _ ->
      let k = st.next in
      st.next <- k + 1;
      if k < Array.length st.stock then st.stock.(k) else st.gen k)

let jobs_per_s (s : session) = float_of_int (Array.length s.jobs) /. s.wall

(** The programs behind a serve workload's [sim_overhead_*] and its
    per-layer pipeline numbers: the repeat set's safe programs, or for
    serve-fresh a fixed population of generated safe programs (generator
    seed 0, the first 48 of each class).  The population is fixed so the
    metric is exact: a sample drawn from the run's own seed moves it by
    about 10% from seed to seed. *)
let reference_programs = function
  | Repeat ->
      List.filter_map
        (fun (src, e) -> if e = Traps then None else Some src)
        repeat_set
  | Fresh ->
      let per = 48 and gen = stream Fresh ~seed:0 in
      let rec go k spec olden acc =
        if (spec >= per && olden >= per) || k >= 10_000 then List.rev acc
        else
          let j = gen k in
          let heap = allocates j.src in
          let full = if heap then olden >= per else spec >= per in
          if j.expect = Traps || full then go (k + 1) spec olden acc
          else if heap then go (k + 1) spec (olden + 1) (j.src :: acc)
          else go (k + 1) (spec + 1) olden (j.src :: acc)
      in
      go 0 0 0 []

(** The service must report the simulated cycles a direct run of the
    same program counts: checked on the first safe jobs of a session. *)
let cross_check (r : M.result) (s : session) =
  let n = ref 0 in
  Array.iteri
    (fun i (j : job) ->
      match (j.expect, s.rows.(i)) with
      | (Exits | Exit_code _), Some row when !n < 16 ->
          incr n;
          let direct =
            Stages.cycles
              (R.run
                 (R.Softbound R.sb_full_shadow)
                 (R.compile_source_cached j.src))
          in
          M.check r (direct = row.cycles) (fun () ->
              Printf.sprintf "job %d: service reported %d cycles, direct run %d"
                j.id row.cycles direct)
      | _ -> ())
    s.jobs

(** Flood batches run before the timed ones, so the heap and the caches
    reach their steady state first. *)
let warmup_batches = 3

let run (r : M.result) st ~seconds ~traced =
  let p = params st.kind in
  let rate = p.rate in
  let width = Domain.recommended_domain_count () in
  for _ = 1 to warmup_batches do
    ignore (session r ~width ~cap (take st p.batch))
  done;
  (* flood: fixed-size closed-loop batches until the flood share of the
     run is spent.  Only the first batch is kept whole, so memory does
     not grow with the run. *)
  let flood_end = M.now () +. (seconds *. p.flood_share) in
  let gc0 = Gc.quick_stat () and a0 = M.allocated_bytes () in
  let src0 = R.source_compiles_performed () in
  let tr0 = R.transforms_performed () in
  let first = session r ~width ~cap (take st p.batch) in
  let rates = ref [ jobs_per_s first ] and k = ref 1 in
  while !k < 3 || (M.now () < flood_end && !k < 500) do
    rates := jobs_per_s (session r ~width ~cap (take st p.batch)) :: !rates;
    incr k
  done;
  let gc1 = Gc.quick_stat () and a1 = M.allocated_bytes () in
  let sources = R.source_compiles_performed () - src0 in
  let transforms = R.transforms_performed () - tr0 in
  let rates = !rates in
  let flood_jobs = float_of_int (p.batch * List.length rates) in
  M.add r "wall_s" "s"
    (M.median (List.map (fun x -> float_of_int p.batch /. x) rates));
  M.add r "jobs_per_s" "1/s" (M.median rates);
  (* open loop: one job every 1/rate seconds for the rest of the run *)
  let n = max 20 (int_of_float (rate *. seconds *. (1.0 -. p.flood_share))) in
  let jobs = take st n in
  let start = M.now () +. 0.01 in
  let due = Array.init n (fun i -> start +. (float_of_int i /. rate)) in
  let o = session ~due r ~width ~cap:(n + 1) jobs in
  let per_job f =
    List.concat
      (List.init n (fun i ->
           match o.rows.(i) with Some row -> [ f i row ] | None -> []))
  in
  let verdict = per_job (fun i row -> 1000.0 *. (row.t -. due.(i))) in
  M.add r "verdict_p50_ms" "ms" (M.median verdict);
  cross_check r first;
  let srcs = reference_programs st.kind in
  let cells =
    List.mapi
      (fun i src ->
        let m = R.compile_source_cached src in
        {
          Stages.label = string_of_int i;
          category =
            (if allocates src then Workloads.Olden else Workloads.Spec);
          runs =
            List.map
              (fun (_, scheme) ->
                (* the first run instruments and closure-compiles *)
                ignore (R.run scheme m);
                M.time (fun () -> R.run scheme m))
              Stages.schemes;
        })
      srcs
  in
  Stages.sim_overhead r cells;
  if traced then begin
    M.add r "serve.width" "count" (float_of_int width);
    let pct q xs = M.percentile q xs in
    let service = per_job (fun _ row -> row.ms) in
    let wait =
      per_job (fun i row -> (1000.0 *. (row.t -. o.submit.(i))) -. row.ms)
    in
    M.add r "serve.service_ms_p50" "ms" (M.median service);
    M.add r "serve.service_ms_p99" "ms" (pct 99.0 service);
    M.add r "serve.queue_wait_ms_p50" "ms" (M.median wait);
    M.add r "serve.queue_wait_ms_p99" "ms" (pct 99.0 wait);
    M.add r "serve.verdict_p99_ms" "ms" (pct 99.0 verdict);
    M.add r "loadgen.lag_p99_ms" "ms"
      (pct 99.0 (List.init n (fun i -> 1000.0 *. (o.submit.(i) -. due.(i)))));
    M.add r "serve.proto_parse_us" "us"
      (M.median
         (Array.to_list
            (Array.map
               (fun j ->
                 1e6 *. snd (M.time (fun () -> Harness.Proto.parse_job j.line)))
               first.jobs)));
    M.add r "serve.row_encode_us" "us"
      (M.median
         (List.map
            (fun line ->
              let v = J.parse line in
              1e6 *. snd (M.time (fun () -> J.to_string v)))
            first.raw_rows));
    M.add r "runner.source_hit_ratio" "ratio"
      (1.0 -. M.ratio (float_of_int sources) flood_jobs);
    M.add r "runner.transform_hit_ratio" "ratio"
      (1.0 -. M.ratio (float_of_int transforms) flood_jobs);
    M.add r "runtime.alloc_mb_per_job" "MB" ((a1 -. a0) /. 1e6 /. flood_jobs);
    M.add r "runtime.minor_gcs_per_job" "count"
      (float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections)
      /. flood_jobs);
    M.add r "runtime.major_gcs" "count"
      (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
    let one =
      List.init 3 (fun _ ->
          jobs_per_s (session r ~width:1 ~cap (take st p.batch)))
    in
    M.add r "par.scaling" "ratio" (M.ratio (M.median rates) (M.median one));
    let progs = List.map R.compile_source_cached srcs in
    Stages.run_counters r cells;
    Stages.profile_cycles r progs;
    Stages.obs_ratio r progs;
    Stages.pipeline r srcs;
    Stages.cached_hit_costs r (List.hd srcs)
  end
