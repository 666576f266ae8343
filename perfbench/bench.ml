(* One benchmark process: set up one workload several times, time its
   measured phase in each repetition, check its outputs and print one
   JSON object on stdout.

     bench.exe --workload NAME --seed N --scenario S --seconds SEC
               [--trace] [--out DIR]

   [--scenario] is the generator seed that defines the problem instance;
   [--seed] is the run seed, which permutes the order the instance's
   tasks are handed to the program. [--trace] enables an
   [Lla_obs.Profile] through the public [?obs] argument and records the
   benchmark's own spans, written to DIR when the run ends.

   Every repetition sets the workload up from scratch (one set-up sample)
   and then runs the same timed phase, cut into short segments (a kernel
   tick, a controller period, a soak watchdog window). The repetitions do
   identical work segment by segment, which the output checks verify, so
   the timed phase is reported as the sum over segments of the fastest
   repetition: the program's own time with the host's interference taken
   out.

   The benchmark only calls public functions of the libraries and reads
   counters and profile sections they already expose. *)

module G = Lla_scale.Generator
module K = Lla_scale.Kernel
module P = Lla.Problem
module D = Lla_runtime.Distributed
module E = Lla_runtime.Engine
module T = Lla_transport.Transport
module J = Lla_durable.Journal
module Soak = Lla_soak.Soak
module Profile = Lla_obs.Profile
module Monitor = Lla_obs.Monitor
module Json = Lla_obs.Jsonl
module W = Lla_model.Workload

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

type ctx = {
  workload : string;
  seed : int;
  scenario : int;
  seconds : float;
  trace : bool;
  out : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --scenario S --seconds SEC [--trace] [--out DIR]";
  exit 2

let parse_args () =
  let ctx =
    ref { workload = ""; seed = 0; scenario = 42; seconds = 10.; trace = false; out = "perfbench/out" }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> ctx := { !ctx with workload = v }; go rest
    | "--seed" :: v :: rest -> ctx := { !ctx with seed = int_of_string v }; go rest
    | "--scenario" :: v :: rest -> ctx := { !ctx with scenario = int_of_string v }; go rest
    | "--seconds" :: v :: rest -> ctx := { !ctx with seconds = float_of_string v }; go rest
    | "--out" :: v :: rest -> ctx := { !ctx with out = v }; go rest
    | "--trace" :: rest -> ctx := { !ctx with trace = true }; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  !ctx

(* ------------------------------------------------------------------ *)
(* Results                                                              *)
(* ------------------------------------------------------------------ *)

(* Everything a process reports, in insertion order. [setup] holds the
   set-up phases of every repetition (seconds); [setup_samples] one
   total per repetition; [unit_times] each repetition's timed phase;
   [values] the measured metrics; [counts] the exact work counts run.py
   requires to repeat across runs of one seed; [reference] the values
   run.py compares with the recorded references; [checks] the output
   checks (name, passed, detail). *)
type result = {
  mutable setup : (string * float) list;
  mutable setup_samples : float list;
  mutable unit_times : float list;
  mutable values : (string * float) list;
  mutable counts : (string * int) list;
  mutable reference : (string * float) list;
  mutable checks : (string * bool * string) list;
}

let res =
  {
    setup = [];
    setup_samples = [];
    unit_times = [];
    values = [];
    counts = [];
    reference = [];
    checks = [];
  }

let value name v = res.values <- res.values @ [ (name, v) ]

let count name n = res.counts <- res.counts @ [ (name, n) ]

let reference name v = res.reference <- res.reference @ [ (name, v) ]

let check name ok detail = res.checks <- res.checks @ [ (name, ok, detail) ]

(* Every repetition must reproduce the first one's facts (named counts). *)
let check_repeats name = function
  | [] -> ()
  | first :: rest ->
    let differing =
      List.concat
        (List.mapi
           (fun i other ->
             List.filter_map
               (fun (k, v) ->
                 if List.assoc_opt k other = Some v then None
                 else Some (Printf.sprintf "%s in repetition %d" k (i + 2)))
               first)
           rest)
    in
    check (name ^ " repeat exactly") (differing = []) ("differs: " ^ String.concat ", " differing)

(* ------------------------------------------------------------------ *)
(* Spans (traced runs only)                                             *)
(* ------------------------------------------------------------------ *)

type span = { id : int; parent : int; name : string; start : float; stop : float }

let tracing = ref false
let spans = ref []
let next_span = ref 1
let open_spans = ref [ 0 ]

(* Run [f] and return its result with its wall time in seconds; in a
   traced run the call is also recorded as a span under the innermost
   open one. *)
let timed name f =
  if not !tracing then begin
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  end
  else begin
    let id = !next_span in
    incr next_span;
    let parent = List.hd !open_spans in
    open_spans := id :: !open_spans;
    let t0 = now () in
    let r = Fun.protect ~finally:(fun () -> open_spans := List.tl !open_spans) f in
    let t1 = now () in
    spans := { id; parent; name; start = t0; stop = t1 } :: !spans;
    (r, t1 -. t0)
  end

(* Record an interval timed outside [timed] (a soak window between two
   progress callbacks) as a span under the innermost open one. *)
let record_span name start stop =
  if !tracing then begin
    let id = !next_span in
    incr next_span;
    spans := { id; parent = List.hd !open_spans; name; start; stop } :: !spans
  end

let setup_phase name f =
  let r, dt = timed name f in
  res.setup <- res.setup @ [ (name, dt) ];
  r

(* One set-up repetition: run [f], whose phases go through
   [setup_phase], and record their total as one set-up sample. *)
let setup_rep f =
  let before = List.length res.setup in
  let r = f () in
  let mine = List.filteri (fun i _ -> i >= before) res.setup in
  res.setup_samples <- res.setup_samples @ [ List.fold_left (fun acc (_, dt) -> acc +. dt) 0. mine ];
  r

let write_spans ctx =
  if !tracing then begin
    (try Unix.mkdir ctx.out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path =
      Filename.concat ctx.out (Printf.sprintf "spans-%s-seed%d.jsonl" ctx.workload ctx.seed)
    in
    let oc = open_out path in
    List.iter
      (fun s ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("trace", Json.Str (Printf.sprintf "%s/%d" ctx.workload ctx.seed));
                  ("span", Json.Num (float_of_int s.id));
                  ("parent", Json.Num (float_of_int s.parent));
                  ("name", Json.Str s.name);
                  ("start_s", Json.Num s.start);
                  ("end_s", Json.Num s.stop);
                ]));
        output_char oc '\n')
      (List.rev !spans);
    close_out oc
  end

(* ------------------------------------------------------------------ *)
(* Helpers                                                              *)
(* ------------------------------------------------------------------ *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let sum = List.fold_left ( +. ) 0.

let sum_array = Array.fold_left ( +. ) 0.

(* Time of a timed phase that every repetition ran segment by segment:
   the sum over segments of the fastest repetition of each. Host
   interference only ever adds time, so the fastest repetition of a short
   segment is the program's own cost for it. *)
let best_of_segments reps =
  match reps with
  | [] -> nan
  | first :: _ ->
    let n = Array.length first in
    let aligned = List.for_all (fun a -> Array.length a = n) reps in
    check "segments line up across repetitions" aligned
      (String.concat ", " (List.map (fun a -> string_of_int (Array.length a)) reps));
    if not aligned then nan
    else begin
      let total = ref 0. in
      for i = 0 to n - 1 do
        total := !total +. List.fold_left (fun acc a -> Float.min acc a.(i)) infinity reps
      done;
      !total
    end

(* VmHWM of this process in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let kb = ref 0 in
  (try
     while true do
       let line = input_line ic in
       try Scanf.sscanf line "VmHWM: %d kB" (fun v -> kb := v) with Scanf.Scan_failure _ | Failure _ | End_of_file -> ()
     done
   with End_of_file -> close_in ic);
  float_of_int !kb /. 1024.

(* Number of repetitions for a run of [seconds]: a fixed function of the
   requested length, never of measured speed, so every run of a seed does
   identical work. [nominal_s] is a repetition's wall time (set-up
   included) on the reference host. *)
let units ctx ~nominal_s ~min_units =
  max min_units (int_of_float (Float.round (ctx.seconds /. nominal_s)))

(* Collect the previous repetition's data before the next one sets up,
   so every set-up sample starts from a heap holding only the benchmark's
   own results, and peak_rss_mb stays about one repetition's. *)
let fresh_heap () = Gc.compact ()

(* The run seed permutes the task order: the same optimisation problem,
   presented in another order (subtask numbering, CSR layout and message
   order all follow it). Seed 0 keeps the generator's order. *)
let permute seed (w : W.t) =
  if seed = 0 then w
  else begin
    let a = Array.of_list w.W.tasks in
    let st = Random.State.make [| seed |] in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    W.make_exn ~tasks:(Array.to_list a) ~resources:w.W.resources
  end

(* Profiler handle for traced runs (default trace ring). *)
let profiled_obs () = Lla_obs.create ~profile:(Profile.create ~enabled:true ()) ()

(* Sum of the profile sections whose name path ends with [name]. *)
let section_s stats name =
  List.fold_left
    (fun acc (s : Profile.stat) ->
      match List.rev s.Profile.path with
      | last :: _ when last = name -> acc +. s.Profile.seconds
      | _ -> acc)
    0. stats

let section_calls stats name =
  List.fold_left
    (fun acc (s : Profile.stat) ->
      match List.rev s.Profile.path with
      | last :: _ when last = name -> acc + s.Profile.count
      | _ -> acc)
    0 stats

(* Time of a section minus its direct children. *)
let self_s stats path =
  let depth = List.length path in
  List.fold_left
    (fun acc (s : Profile.stat) ->
      let p = s.Profile.path in
      if p = path then acc +. s.Profile.seconds
      else if List.length p = depth + 1 && List.filteri (fun i _ -> i < depth) p = path then
        acc -. s.Profile.seconds
      else acc)
    0. stats

let top_level_s stats =
  List.fold_left
    (fun acc (s : Profile.stat) ->
      match s.Profile.path with [ _ ] -> acc +. s.Profile.seconds | _ -> acc)
    0. stats

let gc_words () = Gc.minor_words ()
let gc_majors () = (Gc.quick_stat ()).Gc.major_collections

let finite x = Float.is_finite x

(* The bit pattern of a float as two exact facts (an OCaml int holds 63
   bits, not 64). *)
let bits_facts name x =
  let b = Int64.bits_of_float x in
  [
    (name ^ "_bits_hi", Int64.to_int (Int64.shift_right_logical b 32));
    (name ^ "_bits_lo", Int64.to_int (Int64.logand b 0xFFFF_FFFFL));
  ]

(* ------------------------------------------------------------------ *)
(* kernel_cold_100k                                                     *)
(* ------------------------------------------------------------------ *)

let kernel_budget = 10_000

(* Bytes a tick moves, computed from the touched counts and the CSR
   shapes of the kernel's three passes (8-byte words): a touched subtask
   reads 11 per-subtask words plus an index and a price per path through
   it; a touched resource reads 9 words plus index, work and latency per
   member subtask; a touched path reads 9 words plus index and latency per
   member. A model for a roofline, not a hardware counter. *)
let bytes_model (problem : P.t) ~subtasks ~resources ~paths =
  let n_sub = float_of_int (Array.length problem.P.subtasks) in
  let n_res = float_of_int (Array.length problem.P.capacities) in
  let n_path = float_of_int (Array.length problem.P.paths) in
  let memberships =
    Array.fold_left (fun acc (s : P.subtask) -> acc + Array.length s.P.paths) 0 problem.P.subtasks
  in
  let per_sub = 11. +. (2. *. float_of_int memberships /. n_sub) in
  let per_res = 9. +. (3. *. n_sub /. n_res) in
  let per_path = 9. +. (2. *. float_of_int memberships /. n_path) in
  8.
  *. ((per_sub *. float_of_int subtasks)
     +. (per_res *. float_of_int resources)
     +. (per_path *. float_of_int paths))

(* What one kernel repetition leaves behind: plain values only, so its
   scenario and kernel are garbage before the next repetition sets up. *)
type kernel_rep = {
  k_facts : (string * int) list;
  k_utility : float;
  k_ticks : float array;  (** per-tick times; empty for the solving repetition *)
  k_solve_s : float;
  k_words : float;
  k_bytes : float;
}

(* [solves_per_setup] cold solves follow each set-up, the later ones
   after [Kernel.crash_reset], which puts the kernel back in its
   construction state. The first solve of the run is [Kernel.solve] to
   feasible convergence; every other one replays its tick count one
   [Kernel.step] at a time, which is what [solve] does between its
   convergence checks, so that each tick is a timed segment. *)
let solves_per_setup = 3

let kernel_cold ctx =
  let params = G.sized ~subtasks:100_000 () in
  let setups = units ctx ~nominal_s:5.0 ~min_units:2 in
  let majors0 = gc_majors () in
  let solved_ticks = ref 0 in
  let n_sub = ref 0 in
  let stats = ref [] in
  let one_solve ~first problem kernel =
    let i0 = K.iteration kernel in
    let c0 = K.cumulative_touch kernel in
    let w0 = gc_words () in
    let solve_s, ticks =
      if first then begin
        let outcome, dt =
          timed "kernel.solve" (fun () -> K.solve kernel ~max_iterations:(i0 + kernel_budget))
        in
        solved_ticks := (match outcome with Some n -> n - i0 | None -> -1);
        (dt, [||])
      end
      else
        ( nan,
          Array.init (max 0 !solved_ticks) (fun _ -> snd (timed "kernel.step" (fun () -> K.step kernel)))
        )
    in
    let words = gc_words () -. w0 in
    let c1 = K.cumulative_touch kernel in
    let sub_t = c1.K.subtasks_touched - c0.K.subtasks_touched in
    let res_t = c1.K.resources_touched - c0.K.resources_touched in
    let path_t = c1.K.paths_touched - c0.K.paths_touched in
    {
      k_facts =
        [
          ("kernel.ticks", K.iteration kernel - i0);
          ("kernel.subtasks_touched", sub_t);
          ("kernel.resources_touched", res_t);
          ("kernel.paths_touched", path_t);
          ("feasible", Bool.to_int (K.feasible kernel));
          ("guard_events", K.guard_events kernel);
        ]
        @ bits_facts "utility" (K.utility kernel);
      k_utility = K.utility kernel;
      k_ticks = ticks;
      k_solve_s = solve_s;
      k_words = words;
      k_bytes = bytes_model problem ~subtasks:sub_t ~resources:res_t ~paths:path_t;
    }
  in
  let runs =
    List.concat
      (List.init setups (fun r ->
           fresh_heap ();
           let obs = if ctx.trace then Some (profiled_obs ()) else None in
           let problem, kernel =
             setup_rep (fun () ->
                 let workload =
                   setup_phase "setup.generate" (fun () ->
                       permute ctx.seed (G.generate ~params ~seed:ctx.scenario ()))
                 in
                 let problem = setup_phase "setup.compile" (fun () -> P.compile workload) in
                 let kernel =
                   setup_phase "setup.compact" (fun () ->
                       match K.of_problem ?obs ~config:K.scale_config problem with
                       | Ok k -> k
                       | Error e -> failwith ("kernel rejected the scenario: " ^ e))
                 in
                 (problem, kernel))
           in
           if r = 0 then begin
             n_sub := K.n_subtasks kernel;
             reference "subtasks" (float_of_int !n_sub);
             reference "resources" (float_of_int (K.n_resources kernel));
             reference "paths" (float_of_int (K.n_paths kernel))
           end;
           let solves =
             List.init solves_per_setup (fun j ->
                 if j > 0 then K.crash_reset kernel;
                 one_solve ~first:(r = 0 && j = 0) problem kernel)
           in
           Option.iter (fun o -> stats := Profile.stats o.Lla_obs.profile @ !stats) obs;
           solves))
  in
  let first = List.hd runs in
  let fact name = List.assoc name first.k_facts in
  let ticks = !solved_ticks in
  let utility = first.k_utility in
  check "converged within budget" (ticks > 0)
    (Printf.sprintf "no feasible convergence in %d ticks" kernel_budget);
  check "feasible at scale_config tolerance" (fact "feasible" = 1) "";
  check "zero guard events" (fact "guard_events" = 0)
    (Printf.sprintf "%d guard events" (fact "guard_events"));
  check "utility finite" (finite utility) (Printf.sprintf "utility %g" utility);
  check_repeats "stepped solves (ticks, touched, utility bits)" (List.map (fun u -> u.k_facts) runs);
  reference "utility" utility;
  let stepped = List.tl runs in
  let solve_s = best_of_segments (List.map (fun u -> u.k_ticks) stepped) in
  res.unit_times <- first.k_solve_s :: List.map (fun u -> sum_array u.k_ticks) stepped;
  let ticks_f = float_of_int (max 1 ticks) in
  let sub_t = fact "kernel.subtasks_touched" in
  value "work_per_s" (float_of_int !n_sub /. solve_s);
  value "unit_s" solve_s;
  value "ticks_to_optimum" ticks_f;
  List.iter (fun k -> count k (fact k))
    [ "kernel.ticks"; "kernel.subtasks_touched"; "kernel.resources_touched"; "kernel.paths_touched" ];
  count "units" (List.length runs);
  count "gc.major_collections" (gc_majors () - majors0);
  let words = median (List.map (fun u -> u.k_words) runs) in
  value "kernel.ns_per_subtask_touched" (solve_s *. 1e9 /. float_of_int (max 1 sub_t));
  value "kernel.bytes_moved_computed" (first.k_bytes /. ticks_f);
  value "kernel.minor_words_per_tick" (words /. ticks_f);
  value "gc.minor_words_per_unit" (words /. float_of_int !n_sub);
  if ctx.trace then begin
    let stats = !stats in
    let total_ticks = ticks_f *. float_of_int (List.length runs) in
    let per_tick name = section_s stats name *. 1e3 /. total_ticks in
    value "kernel.allocate_ms" (per_tick "allocate");
    value "kernel.resource_prices_ms" (per_tick "resource_prices");
    value "kernel.path_prices_ms" (per_tick "path_prices")
  end

(* ------------------------------------------------------------------ *)
(* deploy_eq7_30k / deploy_armed_2k                                     *)
(* ------------------------------------------------------------------ *)

(* Soft-deadline utilities (the paper's general concave Eq. 1 case), so
   every controller round runs the numeric Eq. 7 solve instead of the
   closed form the generator's linear utilities allow. *)
let soft_deadline (w : W.t) =
  W.make_exn
    ~tasks:
      (List.map
         (fun (t : Lla_model.Task.t) ->
           Lla_model.Task.with_utility t
             (Lla_model.Utility.soft_deadline ~sharpness:8.
                ~critical_time:t.Lla_model.Task.critical_time ()))
         w.W.tasks)
    ~resources:w.W.resources

(* Metric instances in a registry: exposition sample lines, one per
   counter/gauge instance and one ([_count]) per histogram instance. *)
let metric_instances registry =
  String.split_on_char '\n' (Lla_obs.Metrics.expose registry)
  |> List.filter (fun line ->
         line <> ""
         && line.[0] <> '#'
         &&
         let name = List.hd (String.split_on_char '{' (List.hd (String.split_on_char ' ' line))) in
         not
           (String.ends_with ~suffix:"_bucket" name || String.ends_with ~suffix:"_sum" name))
  |> List.length

type deploy_rep = {
  d_facts : (string * int) list;
  d_utility : float;
  d_segments : float array;
  d_words : float;
  d_stats : Profile.stat list;
  d_corrupt : string list;
}

(* One repetition: set up (generate, create, the first controller period,
   since transport channels are built lazily), then [periods] controller
   periods timed in [chunks] segments each. The reference values are read
   at the end of the timed phase. *)
let deploy ctx ~armed =
  let subtasks, periods, chunks, nominal_s =
    if armed then (2_000, 30, 2, 3.9) else (30_000, 10, 10, 5.0)
  in
  let period = D.default_config.D.controller_period in
  let reps = units ctx ~nominal_s ~min_units:3 in
  let majors0 = gc_majors () in
  let actors = ref 0 in
  let runs =
    List.init reps (fun _ ->
        fresh_heap ();
        let obs =
          if armed || ctx.trace then
            Some (Lla_obs.create ~profile:(Profile.create ~enabled:ctx.trace ()) ())
          else None
        in
        let monitor = if armed then Some (Monitor.create ()) else None in
        let store = J.Store.faulty () in
        let journal = if armed then Some (J.create store) else None in
        let resilience = if armed then Some D.default_resilience else None in
        (* the lean deployment runs with the scale valve: one shared
           counter block instead of per-channel metrics *)
        let transport_config =
          if armed then T.default_config else { T.default_config with T.channel_metrics = false }
        in
        let engine = E.sim () in
        let workload, dist =
          setup_rep (fun () ->
              let workload =
                setup_phase "setup.generate" (fun () ->
                    soft_deadline
                      (permute ctx.seed (G.generate ~params:(G.sized ~subtasks ()) ~seed:ctx.scenario ())))
              in
              let dist =
                setup_phase "setup.create" (fun () ->
                    D.create_on ?obs ?monitor ?resilience ?journal ~transport_config engine workload)
              in
              setup_phase "setup.first_period" (fun () -> D.run dist ~duration:period);
              (workload, dist))
        in
        actors := List.length workload.W.tasks + List.length workload.W.resources;
        let transport = D.transport dist in
        let instances =
          let own = D.metrics dist and tr = T.metrics transport in
          metric_instances own + if own == tr then 0 else metric_instances tr
        in
        Option.iter (fun o -> Profile.reset o.Lla_obs.profile) obs;
        let m0 = D.messages_sent dist in
        let r0 = D.price_rounds dist + D.allocation_rounds dist in
        let e0 = E.events_fired (D.engine_handle dist) in
        let d0 = T.totals transport in
        let w0 = gc_words () in
        let emitted () = Option.fold obs ~none:0 ~some:(fun o -> Lla_obs.Trace.emitted o.Lla_obs.trace) in
        let trace0 = emitted () in
        let samples0, alerts0 =
          Option.fold monitor ~none:(0, 0) ~some:(fun m -> (Monitor.utility_samples m, Monitor.alerts_raised m))
        in
        let appends0, bytes0 =
          Option.fold journal ~none:(0, 0) ~some:(fun j -> (J.appends j, J.bytes_written j))
        in
        let segments =
          Array.init (periods * chunks) (fun _ ->
              snd (timed "dist.segment" (fun () -> D.run dist ~duration:(period /. float_of_int chunks))))
        in
        let words = gc_words () -. w0 in
        let d1 = T.totals transport in
        let non_finite l f = List.length (List.filter (fun x -> not (finite (f x))) l) in
        let corrupt =
          Option.fold journal ~none:[] ~some:(fun j ->
              List.filter
                (fun path ->
                  match J.Store.read store path with
                  | None -> false
                  | Some bytes -> (J.scan bytes).J.corrupt_at <> None)
                (J.segment_paths j))
        in
        {
          d_facts =
            [
              ("messages_sent", D.messages_sent dist);
              ("rounds", D.price_rounds dist + D.allocation_rounds dist);
              ("transport.channels", List.length (T.channels transport));
              ("metrics.instances", instances);
              ("dist.rounds", D.price_rounds dist + D.allocation_rounds dist - r0);
              ("dist.messages", D.messages_sent dist - m0);
              ("transport.delivered", d1.T.delivered - d0.T.delivered);
              ("transport.stale", d1.T.stale - d0.T.stale);
              ("engine.events_fired", E.events_fired (D.engine_handle dist) - e0);
              ("trace.records", emitted () - trace0);
              ( "monitor.samples",
                Option.fold monitor ~none:0 ~some:(fun m -> Monitor.utility_samples m - samples0) );
              ( "monitor.alerts_raised",
                Option.fold monitor ~none:0 ~some:(fun m -> Monitor.alerts_raised m - alerts0) );
              ("journal.appends", Option.fold journal ~none:0 ~some:(fun j -> J.appends j - appends0));
              ("journal.bytes", Option.fold journal ~none:0 ~some:(fun j -> J.bytes_written j - bytes0));
              ("guard_events", D.guard_events dist);
              ( "non_finite_latencies",
                non_finite (W.subtasks workload) (fun (s : Lla_model.Subtask.t) -> D.latency dist s.id) );
              ( "non_finite_prices",
                non_finite workload.W.resources (fun (r : Lla_model.Resource.t) -> D.mu dist r.id) );
            ]
            @ bits_facts "utility" (D.utility dist);
          d_utility = D.utility dist;
          d_segments = segments;
          d_words = words;
          d_stats = Option.fold obs ~none:[] ~some:(fun o -> Profile.stats o.Lla_obs.profile);
          d_corrupt = corrupt;
        })
  in
  let first = List.hd runs in
  let fact name = List.assoc name first.d_facts in
  check_repeats "deployment counts and utility bits" (List.map (fun u -> u.d_facts) runs);
  let utility = first.d_utility in
  reference "messages_sent" (float_of_int (fact "messages_sent"));
  reference "rounds" (float_of_int (fact "rounds"));
  reference "utility" utility;
  check "zero guard events" (fact "guard_events" = 0)
    (Printf.sprintf "%d guard events" (fact "guard_events"));
  check "every latency finite" (fact "non_finite_latencies" = 0)
    (Printf.sprintf "%d non-finite latencies" (fact "non_finite_latencies"));
  check "every price finite" (fact "non_finite_prices" = 0)
    (Printf.sprintf "%d non-finite prices" (fact "non_finite_prices"));
  check "utility finite" (finite utility) "";
  check "messages flowed" (fact "dist.messages" > 0 && fact "dist.rounds" > 0)
    "no messages or rounds in the timed phase";
  if armed then begin
    let corrupt = List.concat_map (fun u -> u.d_corrupt) runs in
    check "journal scan finds no corruption" (corrupt = []) (String.concat ", " corrupt);
    check "journal appended" (fact "journal.appends" > 0) "no journal appends"
  end;
  let best = best_of_segments (List.map (fun u -> u.d_segments) runs) in
  res.unit_times <- List.map (fun u -> sum_array u.d_segments) runs;
  let rounds = fact "dist.rounds" in
  let words = median (List.map (fun u -> u.d_words) runs) in
  value "work_per_s" (float_of_int (!actors * periods) /. best);
  value "unit_s" best;
  count "units" reps;
  List.iter (fun k -> count k (fact k))
    [
      "transport.channels"; "metrics.instances"; "dist.rounds"; "dist.messages";
      "transport.delivered"; "transport.stale"; "engine.events_fired"; "trace.records";
      "monitor.samples"; "monitor.alerts_raised"; "journal.appends"; "journal.bytes";
    ];
  count "gc.major_collections" (gc_majors () - majors0);
  value "engine.us_per_event" (best *. 1e6 /. float_of_int (max 1 (fact "engine.events_fired")));
  value "gc.minor_words_per_round" (words /. float_of_int (max 1 rounds));
  value "gc.minor_words_per_unit" (words /. float_of_int (max 1 (!actors * periods)));
  value "journal.bytes_per_record"
    (float_of_int (fact "journal.bytes") /. float_of_int (max 1 (fact "journal.appends")));
  if ctx.trace then begin
    (* profile sections summed over every repetition *)
    let stats = List.concat_map (fun u -> u.d_stats) runs in
    let wall = sum (List.map (fun u -> sum_array u.d_segments) runs) in
    let per_period s = s *. 1e3 /. float_of_int (periods * reps) in
    value "dist.eq7_solve_ms" (per_period (section_s stats "solve"));
    value "dist.allocation_self_ms" (per_period (self_s stats [ "allocation" ]));
    count "dist.allocation_calls" (section_calls stats "allocation" / reps);
    (* self time: an agent's checkpoint runs inside its price update *)
    value "dist.price_update_ms" (per_period (self_s stats [ "price_update" ]));
    value "dist.checkpoint_ms" (per_period (section_s stats "checkpoint"));
    value "dist.unattributed_ms" (per_period (wall -. top_level_s stats))
  end

(* ------------------------------------------------------------------ *)
(* soak_journal_600                                                     *)
(* ------------------------------------------------------------------ *)

(* What one soak run leaves behind: plain values only, so the journal
   store and monitor of a finished run are garbage before the next one
   starts and peak_rss_mb stays one run's. *)
type soak_run = {
  report : Soak.report;
  wall : float;
  words : float;
  windows : float array;  (** wall time between successive progress callbacks *)
  window_ticks : int;  (** ticks those windows cover *)
  appends : int;
  journal_bytes : int;
  monitor_samples : int;
  kernel_step_s : float option;
}

let soak ctx =
  let config =
    {
      Soak.smoke_config with
      Soak.seed = ctx.scenario;
      crash_every = 3_000;
      journal_every = 250;
    }
  in
  let reps = units ctx ~nominal_s:1.7 ~min_units:3 in
  let majors0 = gc_majors () in
  let runs =
    List.init reps (fun _ ->
        fresh_heap ();
        let journal = J.create (J.Store.faulty ()) in
        let monitor = Monitor.create () in
        let obs = if ctx.trace then Some (profiled_obs ()) else None in
        let marks = ref [] in
        let on_progress ~tick =
          let t = now () in
          (match !marks with (_, last) :: _ -> record_span "soak.window" last t | [] -> ());
          marks := (tick, t) :: !marks
        in
        let w0 = gc_words () in
        let report, wall =
          timed "soak.run" (fun () -> Soak.run ?obs ~monitor ~journal ~on_progress config)
        in
        let words = gc_words () -. w0 in
        let marks = Array.of_list (List.rev !marks) in
        let n = Array.length marks in
        match report with
        | Error e -> failwith ("soak construction: " ^ e)
        | Ok report ->
          {
            report;
            wall;
            words;
            windows = Array.init (max 0 (n - 1)) (fun i -> snd marks.(i + 1) -. snd marks.(i));
            window_ticks = (if n < 2 then 0 else fst marks.(n - 1) - fst marks.(0));
            appends = J.appends journal;
            journal_bytes = J.bytes_written journal;
            monitor_samples = Monitor.utility_samples monitor;
            kernel_step_s =
              Option.map (fun o -> section_s (Profile.stats o.Lla_obs.profile) "kernel.step") obs;
          })
  in
  res.setup_samples <- List.map (fun u -> u.wall -. u.report.Soak.elapsed_s) runs;
  let first = List.hd runs in
  let r = first.report in
  let facts u =
    let r = u.report in
    [
      ("soak.ticks", r.Soak.ticks); ("soak.admits", r.admits); ("soak.retires", r.retires);
      ("soak.chaos_windows", r.chaos_windows); ("stalls", r.stalls); ("guard_events", r.guard_events);
      ("safe_entries", r.safe_entries); ("safe_exits", r.safe_exits); ("soak.crashes", r.crashes);
      ("recovery.warm", r.warm_recoveries); ("recovery.cold", r.cold_recoveries);
      ("recovery.replayed", r.journal_replayed); ("journal_refused", r.journal_refused);
      ("worst_recovery_ticks", r.worst_recovery_ticks);
      ("worst_settle_ticks", int_of_float r.worst_settle_ticks);
      ("violations", r.violation_count); ("monitor.alerts_raised", r.alerts_raised);
      ("journal.appends", u.appends); ("journal.bytes", u.journal_bytes);
      ("monitor.samples", u.monitor_samples); ("soak.windows", Array.length u.windows);
      ("window_ticks", u.window_ticks);
    ]
    @ bits_facts "final_utility" r.final_utility
  in
  check_repeats "soak report counts" (List.map facts runs);
  List.iter
    (fun u ->
      if u.report.Soak.violation_count > 0 then
        check "zero oracle violations" false (String.concat "; " u.report.Soak.oracle_violations))
    runs;
  check "zero oracle violations" (r.Soak.violation_count = 0) "";
  check "warm recoveries = crashes"
    (r.Soak.warm_recoveries = r.Soak.crashes && r.Soak.crashes > 0)
    (Printf.sprintf "%d warm of %d crashes" r.Soak.warm_recoveries r.Soak.crashes);
  check "final feasible" r.Soak.final_feasible "";
  res.unit_times <- List.map (fun u -> u.report.Soak.elapsed_s) runs;
  let best = best_of_segments (List.map (fun u -> u.windows) runs) in
  let windows_ms = List.concat_map (fun u -> List.map (fun w -> w *. 1e3) (Array.to_list u.windows)) runs in
  value "work_per_s" (float_of_int first.window_ticks /. best);
  value "unit_s" best;
  value "settle_ticks_worst" r.Soak.worst_settle_ticks;
  value "recovery_ticks_worst" (float_of_int r.Soak.worst_recovery_ticks);
  value "window_p99_ms" (percentile 0.99 windows_ms);
  value "soak.window_ms_p50" (median windows_ms);
  count "units" reps;
  count "gc.major_collections" (gc_majors () - majors0);
  List.iter
    (fun (k, v) -> count k v)
    (List.filter
       (fun (k, _) ->
         List.mem k
           [
             "soak.windows"; "soak.ticks"; "soak.admits"; "soak.retires"; "soak.chaos_windows";
             "soak.crashes"; "recovery.replayed"; "recovery.warm"; "recovery.cold";
             "journal.appends"; "journal.bytes"; "monitor.samples"; "monitor.alerts_raised";
           ])
       (facts first));
  value "journal.bytes_per_record"
    (float_of_int first.journal_bytes /. float_of_int (max 1 first.appends));
  value "soak.words_per_tick_late" r.Soak.words_per_tick_late;
  value "gc.minor_words_per_unit"
    (median (List.map (fun u -> u.words) runs) /. float_of_int r.Soak.ticks);
  (* traced: time inside kernel ticks vs the rest of the soak loop *)
  let profiled =
    List.filter_map
      (fun u ->
        Option.map (fun k -> (k *. 1e3, (u.report.Soak.elapsed_s -. k) *. 1e3)) u.kernel_step_s)
      runs
  in
  if profiled <> [] then begin
    value "soak.kernel_step_ms" (median (List.map fst profiled));
    value "soak.non_kernel_ms" (median (List.map snd profiled))
  end

(* ------------------------------------------------------------------ *)

let workloads =
  [
    ("kernel_cold_100k", kernel_cold);
    ("deploy_eq7_30k", deploy ~armed:false);
    ("deploy_armed_2k", deploy ~armed:true);
    ("soak_journal_600", soak);
  ]

(* Median of each set-up phase over the repetitions, in first-seen order. *)
let setup_medians () =
  List.fold_left (fun acc (k, _) -> if List.mem k acc then acc else acc @ [ k ]) [] res.setup
  |> List.map (fun k -> (k, median (List.filter_map (fun (k', v) -> if k' = k then Some v else None) res.setup)))

let () =
  let ctx = parse_args () in
  let run =
    match List.assoc_opt ctx.workload workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "unknown workload %S\n" ctx.workload;
      exit 2
  in
  tracing := ctx.trace;
  run ctx;
  value "peak_rss_mb" (peak_rss_mb ());
  write_spans ctx;
  let num x = Json.Num x in
  let assoc f l = Json.Obj (List.map (fun (k, v) -> (k, f v)) l) in
  let gc = Gc.get () in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("setup", assoc num (setup_medians ()));
            ("setup_samples", Json.Arr (List.map num res.setup_samples));
            ("unit_times", Json.Arr (List.map num res.unit_times));
            ("values", assoc num res.values);
            ("counts", assoc (fun n -> num (float_of_int n)) res.counts);
            ("reference", assoc num res.reference);
            ( "checks",
              Json.Arr
                (List.map
                   (fun (name, ok, detail) ->
                     Json.Obj [ ("name", Json.Str name); ("ok", Json.Bool ok); ("detail", Json.Str detail) ])
                   res.checks) );
            ( "env",
              Json.Obj
                [
                  ("ocaml", Json.Str Sys.ocaml_version);
                  ("engine", Json.Str "sim");
                  ("domains", num 1.);
                  ( "OCAMLRUNPARAM",
                    Json.Str (Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"") );
                  ("minor_heap_words", num (float_of_int gc.Gc.minor_heap_size));
                  ("space_overhead", num (float_of_int gc.Gc.space_overhead));
                ] );
          ]))
