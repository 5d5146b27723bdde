module type STATE = sig
  type t [@@immediate]
end

module Make (State : STATE) = struct
  type t = { mutable cur : State.t; mutable next : State.t }

  let create s = { cur = s; next = s }
  let[@inline] state t = t.cur
  let[@inline] goto t s = t.next <- s
  let[@inline] stay t = t.next <- t.cur
  let[@inline] commit t = t.cur <- t.next

  let reset t s =
    t.cur <- s;
    t.next <- s
end
