let recommended_domains () = Domain.recommended_domain_count ()

let default_chunk ~domains n =
  if domains <= 1 then Stdlib.max 1 n
  else Stdlib.max 1 ((n + (4 * domains) - 1) / (4 * domains))

let shard_of_index ~chunk i =
  if chunk <= 0 then invalid_arg "Par.shard_of_index: non-positive chunk";
  i / chunk

(* One slot per item. [Raised] keeps the exception of that index so the
   lowest-indexed failure wins, exactly as it would serially. *)
type 'b slot = Empty | Done of 'b | Raised of exn

(* Persistent worker domains. [Domain.spawn] costs milliseconds (a fresh
   minor heap, a new systhread), so domains are never spawned per map: a
   pool spawns [domains - 1] workers once; each [run] hands every worker
   the same self-scheduling job closure (a chunk-claiming loop over one
   result slot per item, so results stay a pure function of the input
   list), the submitting domain participates as the last worker, and a
   generation counter plus two condition variables sequence job start and
   completion. *)
module Pool = struct
  type t = {
    domains : int;
    mutable workers : unit Domain.t list;
    m : Mutex.t;
    start : Condition.t;  (* a new generation (or shutdown) is visible *)
    finished : Condition.t;  (* a worker retired from the current job *)
    mutable job : (unit -> unit) option;
    mutable generation : int;
    mutable active : int;  (* workers still inside the current job *)
    mutable stopping : bool;
  }

  let worker_loop t =
    let seen = ref 0 in
    let running = ref true in
    while !running do
      Mutex.lock t.m;
      while (not t.stopping) && t.generation = !seen do
        Condition.wait t.start t.m
      done;
      if t.stopping then begin
        Mutex.unlock t.m;
        running := false
      end
      else begin
        seen := t.generation;
        let job = Option.get t.job in
        Mutex.unlock t.m;
        (* Jobs trap per-item exceptions into result slots themselves; a
           raise here would mean a bug in the pool, not in [f]. *)
        job ();
        Mutex.lock t.m;
        t.active <- t.active - 1;
        if t.active = 0 then Condition.broadcast t.finished;
        Mutex.unlock t.m
      end
    done

  let create ?domains () =
    let domains =
      match domains with
      | None -> recommended_domains ()
      | Some d -> Stdlib.max 1 d
    in
    let t =
      {
        domains;
        workers = [];
        m = Mutex.create ();
        start = Condition.create ();
        finished = Condition.create ();
        job = None;
        generation = 0;
        active = 0;
        stopping = false;
      }
    in
    t.workers <- List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
    t

  let domains t = t.domains

  (* Only callable from the domain that created the pool, one job at a
     time — exactly the campaign drivers' usage. *)
  let run t job =
    if t.stopping then invalid_arg "Par.Pool.run: pool is shut down";
    Mutex.lock t.m;
    t.job <- Some job;
    t.generation <- t.generation + 1;
    t.active <- List.length t.workers;
    Condition.broadcast t.start;
    Mutex.unlock t.m;
    job ();
    Mutex.lock t.m;
    while t.active > 0 do
      Condition.wait t.finished t.m
    done;
    t.job <- None;
    Mutex.unlock t.m

  let mapi t ?chunk f items =
    let n = List.length items in
    let chunk =
      match chunk with
      | None -> default_chunk ~domains:t.domains n
      | Some c ->
        if c <= 0 then invalid_arg "Par.Pool.map: non-positive chunk";
        c
    in
    if t.domains = 1 || n <= 1 then List.mapi f items
    else begin
      let arr = Array.of_list items in
      let slots = Array.make n Empty in
      let next = Atomic.make 0 in
      let job () =
        let continue = ref true in
        while !continue do
          let start = Atomic.fetch_and_add next chunk in
          if start >= n then continue := false
          else
            for i = start to Stdlib.min n (start + chunk) - 1 do
              slots.(i) <-
                (match f i arr.(i) with
                | v -> Done v
                | exception e -> Raised e)
            done
        done
      in
      run t job;
      Array.iter (function Raised e -> raise e | _ -> ()) slots;
      Array.to_list
        (Array.map
           (function Done v -> v | Raised _ | Empty -> assert false)
           slots)
    end

  let map t ?chunk f items = mapi t ?chunk (fun _ x -> f x) items

  let shutdown t =
    if not t.stopping then begin
      Mutex.lock t.m;
      t.stopping <- true;
      Condition.broadcast t.start;
      Mutex.unlock t.m;
      List.iter Domain.join t.workers;
      t.workers <- []
    end

  (* Process-wide pool for the campaign drivers: recreated only when the
     requested width changes, so back-to-back campaigns reuse the same
     domains. *)
  let shared_pool = ref None
  let shared_m = Mutex.create ()

  let shared ~domains =
    let domains = Stdlib.max 1 domains in
    Mutex.lock shared_m;
    let t =
      match !shared_pool with
      | Some t when t.domains = domains && not t.stopping -> t
      | prev ->
        (match prev with Some t -> shutdown t | None -> ());
        let t = create ~domains () in
        shared_pool := Some t;
        t
    in
    Mutex.unlock shared_m;
    t
end

(* A width-1 pool spawns nothing and maps with [List.mapi], so the serial
   path never touches (or resizes) the shared pool. *)
let serial = Pool.create ~domains:1 ()

let mapi ?(domains = 1) ?chunk f items =
  let pool = if domains <= 1 then serial else Pool.shared ~domains in
  Pool.mapi pool ?chunk f items

let map ?domains ?chunk f items = mapi ?domains ?chunk (fun _ x -> f x) items
