module Metric = Metric
module Sketch = Sketch
module Registry = Registry
module Span = Span
module Window = Window
module Trace = Trace
module Json = Json
module Export = Export

let enabled = Control.enabled
let set_enabled v = Atomic.set Control.enabled v
let is_enabled () = Atomic.get Control.enabled
let now_ns = Control.now_ns
let time_start () = if is_enabled () then Control.now_ns () else 0

(* the one clock-to-sketch helper; [t0 = 0] is the disabled sentinel *)
let observe_since sketch t0 =
  if t0 <= 0 then 0
  else begin
    let dt = Control.now_ns () - t0 in
    let ctx = Span.current () in
    Sketch.observe sketch ~trace_id:ctx.Span.trace ~span_id:ctx.Span.span dt;
    dt
  end
