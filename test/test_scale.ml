(* Lla_scale: generator determinism / admission, kernel-vs-solver
   equivalence, dirty-set sparsity, and the zero-allocation guarantee of
   the kernel tick. *)

open Lla_model
module Generator = Lla_scale.Generator
module Kernel = Lla_scale.Kernel
module Solver = Lla.Solver

let qcheck = QCheck_alcotest.to_alcotest

let small_params seed =
  (* vary the shape mix and skew a little with the seed so the qcheck
     properties do not all exercise one corner of the generator *)
  let base = Generator.sized ~resources:(12 + (seed mod 9)) ~subtasks:(40 + (seed mod 37)) () in
  {
    base with
    Generator.sharing_skew = 1. +. float_of_int (seed mod 3);
    chain_weight = 1.;
    fan_out_weight = float_of_int (1 + (seed mod 2));
    aggregation_weight = float_of_int (1 + (seed mod 3));
  }

let kernel_exn ?obs ?config workload =
  match Kernel.create ?obs ?config workload with
  | Ok k -> k
  | Error e -> Alcotest.failf "Kernel.create: %s" e

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  let params = Generator.sized ~subtasks:300 () in
  let a = Generator.generate ~params ~seed:42 () in
  let b = Generator.generate ~params ~seed:42 () in
  Alcotest.(check string)
    "same seed, byte-identical workload" (Workload_codec.to_string a) (Workload_codec.to_string b);
  let c = Generator.generate ~params ~seed:43 () in
  if String.equal (Workload_codec.to_string a) (Workload_codec.to_string c) then
    Alcotest.fail "different seeds produced identical workloads"

let test_generator_reaches_target () =
  let params = Generator.sized ~subtasks:500 () in
  let w = Generator.generate ~params ~seed:7 () in
  let subtasks =
    List.fold_left (fun acc (t : Task.t) -> acc + List.length t.Task.subtasks) 0 w.Workload.tasks
  in
  if subtasks < 500 then Alcotest.failf "only %d subtasks generated (target 500)" subtasks;
  List.iter
    (fun (r : Resource.t) ->
      if r.availability <= 0. || r.availability > 1. then
        Alcotest.failf "availability %.3f outside (0, 1]" r.availability)
    w.Workload.resources

let test_generator_witness_fits () =
  (* the witness rescale must leave headroom on every resource: the
     compiled problem's minimum shares (stability floors) fit capacities *)
  let w = Generator.generate ~params:(Generator.sized ~subtasks:400 ()) ~seed:11 () in
  let problem = Lla.Problem.compile w in
  for r = 0 to Lla.Problem.n_resources problem - 1 do
    let floor_sum =
      Array.fold_left
        (fun acc i ->
          let s = problem.Lla.Problem.subtasks.(i) in
          acc +. (s.Lla.Problem.share.Share.lat_min /. s.Lla.Problem.stability))
        0.
        problem.Lla.Problem.by_resource.(r)
    in
    let cap = problem.Lla.Problem.capacities.(r) in
    if floor_sum > cap +. 1e-9 then
      Alcotest.failf "resource %d: stability floor %.4f exceeds capacity %.4f" r floor_sum cap
  done

let prop_generator_deterministic =
  QCheck.Test.make ~name:"generator: same seed => byte-identical scenario" ~count:15
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let params = small_params seed in
      let a = Generator.generate ~params ~seed () in
      let b = Generator.generate ~params ~seed () in
      String.equal (Workload_codec.to_string a) (Workload_codec.to_string b))

let prop_generator_schedulable =
  QCheck.Test.make ~name:"generator: scenarios pass Schedulability admission" ~count:6
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let w = Generator.generate ~params:(small_params seed) ~seed () in
      Lla.Schedulability.is_schedulable (Lla.Schedulability.probe w))

(* ------------------------------------------------------------------ *)
(* Kernel equivalence with the reference solver                        *)
(* ------------------------------------------------------------------ *)

(* Bitwise: the kernel runs the solver's float operations in the solver's
   order, so any difference at all is a bug, not rounding. *)
let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let agree ~label a b =
  if Array.length a <> Array.length b then
    QCheck.Test.fail_reportf "%s: length %d vs %d" label (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      let y = b.(i) in
      if not (same_bits x y) then
        QCheck.Test.fail_reportf "%s[%d]: kernel %.17g vs solver %.17g" label i x y)
    a;
  true

let agree_with_solver kernel solver =
  agree ~label:"lat" (Kernel.lat_array kernel) (Solver.lat_array solver)
  && agree ~label:"mu" (Kernel.mu_array kernel) (Solver.mu_array solver)
  && agree ~label:"lambda" (Kernel.lambda_array kernel) (Solver.lambda_array solver)

let prop_kernel_matches_solver =
  QCheck.Test.make
    ~name:"kernel: lat/mu/lambda match Solver with bitwise equality (adaptive steps)" ~count:20
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let w = Generator.generate ~params:(small_params seed) ~seed () in
      let solver = Solver.create w in
      let kernel = kernel_exn w in
      let iterations = 60 + (seed mod 80) in
      Solver.run solver ~iterations;
      Kernel.run kernel ~iterations;
      agree_with_solver kernel solver)

let prop_kernel_matches_solver_fixed_step =
  QCheck.Test.make ~name:"kernel: matches Solver under a fixed step policy" ~count:10
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let w = Generator.generate ~params:(small_params seed) ~seed () in
      let policy = Lla.Step_size.fixed 0.5 in
      let solver =
        Solver.create ~config:{ Solver.default_config with step_policy = policy } w
      in
      let kernel =
        kernel_exn ~config:{ Kernel.default_config with step_policy = policy } w
      in
      Solver.run solver ~iterations:100;
      Kernel.run kernel ~iterations:100;
      agree_with_solver kernel solver)

let prop_kernel_matches_solver_split_step =
  (* scale_config's Split policy (resources escalated, paths on the small
     cap) must preserve the element-wise equivalence: both sides resolve
     the same per-family components. *)
  QCheck.Test.make ~name:"kernel: matches Solver under a Split step policy" ~count:10
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let w = Generator.generate ~params:(small_params seed) ~seed () in
      let policy =
        Lla.Step_size.split
          ~resource:(Lla.Step_size.adaptive ~initial:1.0 ~cap:1e9 ())
          ~path:(Lla.Step_size.adaptive ~initial:1.0 ())
      in
      let solver =
        Solver.create ~config:{ Solver.default_config with step_policy = policy } w
      in
      let kernel =
        kernel_exn ~config:{ Kernel.default_config with step_policy = policy } w
      in
      Solver.run solver ~iterations:100;
      Kernel.run kernel ~iterations:100;
      agree_with_solver kernel solver)

let test_kernel_movement_matches () =
  (* movement drives Kernel.solve's convergence; it must agree with the
     solver's movement series tick for tick *)
  let w = Generator.generate ~params:(small_params 5) ~seed:5 () in
  let solver = Solver.create w in
  let kernel = kernel_exn w in
  for i = 1 to 40 do
    Solver.step solver;
    Kernel.step kernel;
    let expected =
      let ys = Lla_stdx.Series.ys (Solver.movement_series solver) in
      ys.(Array.length ys - 1)
    in
    if not (same_bits (Kernel.movement kernel) expected) then
      Alcotest.failf "tick %d: movement %.17g vs solver %.17g" i (Kernel.movement kernel)
        expected
  done

let test_kernel_drains_agree_under_churn () =
  (* The kernel drains a sparse subtask queue in push order and a dense
     one by an ascending sweep. A twin that requeues everything before
     each tick takes the sweep every time, with every resource and path
     dirty too; under identical churn its iterate must stay bitwise equal
     to the kernel that chose its drain per tick. *)
  let w = Generator.generate ~params:(Generator.sized ~subtasks:5_000 ()) ~seed:42 () in
  let a = kernel_exn ~config:Kernel.scale_config w in
  let b = kernel_exn ~config:Kernel.scale_config w in
  let rng = Random.State.make [| 42 |] in
  let n_task = Kernel.n_tasks a and n_sub = Kernel.n_subtasks a in
  let sparse = ref 0 and dense = ref 0 in
  let same label x y =
    Array.iteri
      (fun i v ->
        if not (same_bits v y.(i)) then
          Alcotest.failf "tick %d: %s[%d] %.17g vs requeued twin %.17g" (Kernel.iteration a) label
            i v y.(i))
      x
  in
  (* the cold transient sweeps; the settled stretch (~tick 280 on) drains
     sparsely until retire/admit churn from tick 400 re-densifies it *)
  for tick = 1 to 700 do
    if tick >= 400 && tick mod 100 = 0 then begin
      let k = Random.State.int rng n_task in
      let churn kernel =
        if Kernel.task_active kernel k then Kernel.retire_task kernel k
        else Kernel.admit_task kernel k
      in
      churn a;
      churn b
    end;
    if tick mod 50 = 25 then begin
      let i = Random.State.int rng n_sub in
      let delta = Random.State.float rng 200. -. 100. in
      Kernel.disturb_latency a i delta;
      Kernel.disturb_latency b i delta
    end;
    Kernel.requeue_all b;
    Kernel.step a;
    Kernel.step b;
    if Kernel.swept (Kernel.last_touch a) then incr dense else incr sparse;
    same "lat" (Kernel.lat_array a) (Kernel.lat_array b);
    same "mu" (Kernel.mu_array a) (Kernel.mu_array b);
    same "lambda" (Kernel.lambda_array a) (Kernel.lambda_array b);
    if not (same_bits (Kernel.movement a) (Kernel.movement b)) then
      Alcotest.failf "tick %d: movement %.17g vs requeued twin %.17g" tick (Kernel.movement a)
        (Kernel.movement b);
    if Kernel.guard_events a <> Kernel.guard_events b then
      Alcotest.failf "tick %d: %d guard events vs requeued twin %d" tick (Kernel.guard_events a)
        (Kernel.guard_events b)
  done;
  if !sparse = 0 || !dense = 0 then
    Alcotest.failf "drain paths not both exercised: %d sparse and %d dense ticks" !sparse !dense

let test_kernel_rejects_nonlinear () =
  let critical_time = 120. in
  let t1 = Ids.Task_id.make 1 in
  let subtasks =
    [
      Subtask.make ~id:1 ~task:t1 ~resource:0 ~exec_time:2. ();
      Subtask.make ~id:2 ~task:t1 ~resource:1 ~exec_time:3. ();
    ]
  in
  let graph =
    Graph.make_exn
      ~nodes:(List.map (fun (s : Subtask.t) -> s.Subtask.id) subtasks)
      ~edges:[ (Ids.Subtask_id.make 1, Ids.Subtask_id.make 2) ]
  in
  let task =
    Task.make_exn ~id:1 ~subtasks ~graph ~critical_time
      ~utility:(Utility.logarithmic ~k:2. ~critical_time ())
      ~trigger:(Trigger.periodic ~period:400. ())
      ()
  in
  let w =
    Workload.make_exn ~tasks:[ task ]
      ~resources:[ Resource.make ~availability:0.9 0; Resource.make ~availability:0.9 1 ]
  in
  match Kernel.create w with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "kernel accepted a non-linear utility"

(* ------------------------------------------------------------------ *)
(* Dirty-set sparsity and the zero-allocation tick                     *)
(* ------------------------------------------------------------------ *)

let test_kernel_solves_and_sparsifies () =
  let w = Generator.generate ~params:(Generator.sized ~subtasks:2_000 ()) ~seed:3 () in
  let kernel = kernel_exn ~config:Kernel.scale_config w in
  (match Kernel.solve kernel ~max_iterations:4_000 with
  | None -> Alcotest.failf "no convergence in 4000 ticks (movement %.2e)" (Kernel.movement kernel)
  | Some _ -> ());
  if not (Kernel.feasible kernel) then
    Alcotest.failf "infeasible after solve: %s" (String.concat "; " (Kernel.violations kernel));
  (* Past the transient, a tick visits only subtasks whose prices still
     carry state. The generator provisions every resource at
     [capacity_margin] times its witness demand, so at the optimum nearly
     every capacity constraint is active and its positive price keeps the
     members queued — the skip rule is exact, not heuristic, and active
     constraints are exactly the state it must not skip. The honest claim
     is therefore strict savings on the settled minority (measured ~9% on
     this scenario), not a wholesale cut; idle structure (unloaded
     resources, slack paths with [lambda = 0] and no congested resource)
     is what drops out entirely. *)
  let before = Kernel.cumulative_touch kernel in
  let extra = 100 in
  Kernel.run kernel ~iterations:extra;
  let after = Kernel.cumulative_touch kernel in
  let touched = after.Kernel.subtasks_touched - before.Kernel.subtasks_touched in
  let budget = extra * Kernel.n_subtasks kernel in
  if touched * 100 >= budget * 97 then
    Alcotest.failf "dirty sets bought no sparsity: %d of %d subtask updates after convergence"
      touched budget;
  (* All constraint prices in hand are finite and the iterate is still
     feasible after the extra ticks: the post-convergence dither stays
     within tolerance. *)
  if not (Kernel.feasible kernel) then
    Alcotest.failf "left feasibility during post-convergence ticks: %s"
      (String.concat "; " (Kernel.violations kernel))

let test_kernel_tick_zero_alloc () =
  let w = Generator.generate ~params:(Generator.sized ~subtasks:1_000 ()) ~seed:9 () in
  let kernel = kernel_exn ~config:Kernel.scale_config w in
  Kernel.run kernel ~iterations:5 (* warm up: queues populated, caches filled *);
  (* [Gc.minor_words ()] itself allocates its boxed float result, so
     measure the delta of an empty probe and require the delta across N
     ticks to be exactly the same. *)
  let probe iterations =
    let before = Gc.minor_words () in
    Kernel.run kernel ~iterations;
    Gc.minor_words () -. before
  in
  let empty = probe 0 in
  let hundred = probe 100 in
  if hundred <> empty then
    Alcotest.failf "kernel tick allocates: %.0f minor words over 100 ticks" (hundred -. empty);
  (* One-tick windows, each classified by its drain after the window
     closes ([last_touch] allocates its record). [requeue_all] before a
     tick makes its queue full, so it sweeps; the settled stretch of the
     trajectory drains sparsely; a frozen requeued tick takes the sweep
     that sums shares without Eq. 7. *)
  let sparse = ref 0 and dense = ref 0 in
  let one_tick () =
    let words = probe 1 in
    if words <> empty then
      Alcotest.failf "tick %d allocates %.0f minor words" (Kernel.iteration kernel) (words -. empty);
    if Kernel.swept (Kernel.last_touch kernel) then incr dense else incr sparse
  in
  Kernel.requeue_all kernel;
  for _ = 1 to 300 do
    one_tick ()
  done;
  Kernel.set_frozen kernel true;
  Kernel.requeue_all kernel;
  one_tick ();
  Kernel.set_frozen kernel false;
  if !sparse = 0 || !dense = 0 then
    Alcotest.failf "measured ticks miss a drain: %d sparse and %d dense" !sparse !dense

let test_kernel_profiled_run () =
  (* with obs attached, the per-phase totals must cover every tick *)
  let obs = Lla_obs.create () in
  Lla_obs.Profile.set_enabled obs.Lla_obs.profile true;
  let w = Generator.generate ~params:(small_params 1) ~seed:1 () in
  let kernel = kernel_exn ~obs w in
  Kernel.run kernel ~iterations:30;
  let stats = Lla_obs.Profile.stats obs.Lla_obs.profile in
  let count_of name =
    (* match the leaf phase only: children's paths contain the parent *)
    List.fold_left
      (fun acc (s : Lla_obs.Profile.stat) ->
        match List.rev s.Lla_obs.Profile.path with
        | leaf :: _ when String.equal leaf name -> acc + s.Lla_obs.Profile.count
        | _ -> acc)
      0 stats
  in
  Alcotest.(check int) "kernel.step timed per tick" 30 (count_of "kernel.step");
  Alcotest.(check int) "allocate timed per tick" 30 (count_of "allocate")

let () =
  Alcotest.run "scale"
    [
      ( "generator",
        [
          Alcotest.test_case "same seed is byte-identical" `Quick test_generator_deterministic;
          Alcotest.test_case "reaches the subtask target" `Quick test_generator_reaches_target;
          Alcotest.test_case "witness fits every capacity" `Quick test_generator_witness_fits;
          qcheck prop_generator_deterministic;
          qcheck prop_generator_schedulable;
        ] );
      ( "kernel",
        [
          qcheck prop_kernel_matches_solver;
          qcheck prop_kernel_matches_solver_fixed_step;
          qcheck prop_kernel_matches_solver_split_step;
          Alcotest.test_case "movement matches the solver" `Quick test_kernel_movement_matches;
          Alcotest.test_case "sparse and dense drains agree under churn" `Quick
            test_kernel_drains_agree_under_churn;
          Alcotest.test_case "rejects non-linear utilities" `Quick test_kernel_rejects_nonlinear;
          Alcotest.test_case "solves and sparsifies at 2k subtasks" `Quick
            test_kernel_solves_and_sparsifies;
          Alcotest.test_case "tick allocates zero minor words" `Quick test_kernel_tick_zero_alloc;
          Alcotest.test_case "profiled run times every tick" `Quick test_kernel_profiled_run;
        ] );
    ]
