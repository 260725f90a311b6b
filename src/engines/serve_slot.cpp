#include "engines/serve_slot.hpp"

#include <deque>
#include <utility>
#include <variant>

#include "sim/node.hpp"

namespace wasmctr::engines {

// Shared between the slot handle and the CPU-burst callbacks in flight:
// a container teardown can close the slot while a request's burst is
// still scheduled, so the state must outlive the handle.
struct ServeSlot::State {
  enum class Kind { kWasm, kPython };

  Kind kind;
  sim::Node* node = nullptr;

  // Wasm flavor.
  const Engine* engine = nullptr;
  std::vector<uint8_t> module_bytes;
  wasi::WasiOptions wasi_options;
  std::string export_name;
  WasiInstance wasm;

  // Python flavor.
  std::string script;
  std::vector<std::string> argv;
  std::vector<std::pair<std::string, std::string>> env;
  PythonInstance python;

  bool closed = false;
  bool busy = false;
  Status close_reason = Status::ok();
  struct Pending {
    int32_t arg = 0;
    InvokeCallback done;
    obs::SpanId queue_span;  ///< serve.queue: enqueue → dispatch
    obs::SpanId parent;      ///< caller's request span
  };
  std::deque<Pending> queue;
  uint64_t served = 0;
};

namespace {

Result<InvokeReport> run_wasm_request(ServeSlot::State& s, int32_t arg,
                                      double& cpu_s);
Result<InvokeReport> run_python_request(ServeSlot::State& s, int32_t arg,
                                        double& cpu_s);

}  // namespace

ServeSlot::ServeSlot(sim::Node& node, const Engine& engine,
                     std::vector<uint8_t> module_bytes,
                     wasi::WasiOptions wasi_options, std::string export_name)
    : state_(std::make_shared<State>()) {
  state_->kind = State::Kind::kWasm;
  state_->node = &node;
  state_->engine = &engine;
  state_->module_bytes = std::move(module_bytes);
  state_->wasi_options = std::move(wasi_options);
  state_->export_name = std::move(export_name);
}

ServeSlot::ServeSlot(sim::Node& node, std::string script,
                     std::vector<std::string> argv,
                     std::vector<std::pair<std::string, std::string>> env)
    : state_(std::make_shared<State>()) {
  state_->kind = State::Kind::kPython;
  state_->node = &node;
  state_->script = std::move(script);
  state_->argv = std::move(argv);
  state_->env = std::move(env);
}

ServeSlot::~ServeSlot() {
  close(unavailable("serving instance destroyed"));
}

void ServeSlot::invoke(int32_t arg, InvokeCallback done, obs::SpanId parent) {
  if (state_->closed) {
    if (done) done(state_->close_reason);
    return;
  }
  obs::Tracer& tracer = state_->node->obs().tracer;
  State::Pending pending;
  pending.arg = arg;
  pending.done = std::move(done);
  pending.queue_span = tracer.begin_span("serve.queue", "serve", parent);
  pending.parent = parent;
  state_->queue.push_back(std::move(pending));
  pump(state_);
}

void ServeSlot::close(Status reason) {
  State& s = *state_;
  if (s.closed) return;
  s.closed = true;
  s.close_reason = reason.is_ok()
                       ? unavailable("serving instance closed")
                       : std::move(reason);
  auto pending = std::move(s.queue);
  s.queue.clear();
  for (auto& p : pending) {
    s.node->obs().tracer.end_span(p.queue_span);
    if (p.done) p.done(s.close_reason);
  }
  s.wasm.reset();
  s.python.reset();
}

bool ServeSlot::warm() const noexcept {
  return state_->wasm.instance != nullptr || state_->python.interp.has_value();
}

uint32_t ServeSlot::outstanding() const noexcept {
  return static_cast<uint32_t>(state_->queue.size()) +
         (state_->busy ? 1u : 0u);
}

uint64_t ServeSlot::requests_served() const noexcept {
  return state_->served;
}

void ServeSlot::pump(const std::shared_ptr<State>& st) {
  if (st->closed || st->busy || st->queue.empty()) return;
  st->busy = true;
  State::Pending next = std::move(st->queue.front());
  st->queue.pop_front();

  obs::Tracer& tracer = st->node->obs().tracer;
  tracer.end_span(next.queue_span);
  const obs::SpanId exec_span =
      tracer.begin_span("serve.exec", "serve", next.parent);

  // The guest code runs for real at dispatch; the measured instruction
  // count then prices the CPU burst that delays the callback in virtual
  // time (processor sharing with everything else on the node).
  double cpu_s = 0.0;
  Result<InvokeReport> result =
      st->kind == State::Kind::kWasm
          ? run_wasm_request(*st, next.arg, cpu_s)
          : run_python_request(*st, next.arg, cpu_s);
  if (result) {
    tracer.set_attr(exec_span, "cold", result->cold ? "1" : "0");
    tracer.set_attr(exec_span, "instructions",
                    std::to_string(result->instructions));
  } else {
    tracer.set_attr(exec_span, "error", result.status().to_string());
  }

  st->node->burst(cpu_s, [st, exec_span, done = std::move(next.done),
                          result = std::move(result)]() mutable {
    st->node->obs().tracer.end_span(exec_span);
    st->busy = false;
    if (st->closed) {
      if (done) done(st->close_reason);
      return;
    }
    if (result) ++st->served;
    if (done) done(std::move(result));
    pump(st);
  });
}

namespace {

Result<InvokeReport> run_wasm_request(ServeSlot::State& s, int32_t arg,
                                      double& cpu_s) {
  InvokeReport rep;
  cpu_s = kInfra.invoke_overhead_cpu_s;
  if (!s.wasm.instance) {
    // Cold: stand up the serving instance inside the running container.
    // Baseline tier serves from the node's compiled artifact (memoized in
    // the Engine, shared with the startup path — no recompile here).
    WASMCTR_RETURN_IF_ERROR(s.engine->instantiate(
        s.module_bytes, s.wasi_options, s.node->fs(), kRequestFuel, s.wasm));
    rep.cold = true;
    const double kib =
        static_cast<double>(s.module_bytes.size()) / 1024.0;
    cpu_s += s.engine->profile().init_cpu_s * kInfra.serve_instantiate_fraction +
             s.engine->profile().load_cpu_s_per_kib * kib;
  }

  wasm::Instance& instance = *s.wasm.instance;
  instance.set_fuel(kRequestFuel);
  const uint64_t before = instance.instructions_retired();
  const uint32_t pages_before =
      instance.memory() != nullptr ? instance.memory()->pages() : 0;
  const wasm::Value args[] = {wasm::Value::from_i32(arg)};
  auto r = instance.invoke(s.export_name, args);
  const uint64_t instructions = instance.instructions_retired() - before;
  rep.instructions = instructions;
  // The tier, not the engine brand, prices dispatch: an interpreter
  // retires guest instructions an order of magnitude slower than the
  // compiled bytecode tier.
  const double per_kinst = s.engine->tier() == Tier::kInterpreter
                               ? kInfra.invoke_interp_cpu_s_per_kinst
                               : kInfra.invoke_jit_cpu_s_per_kinst;
  cpu_s += per_kinst * static_cast<double>(instructions) / 1000.0;
  if (!r) return r.status();
  if (r->has_value()) rep.result = (*r)->i32();
  if (rep.cold) {
    rep.resident = Bytes(static_cast<uint64_t>(
        static_cast<double>(instance.resident_bytes() +
                            s.wasm.ctx->resident_bytes()) *
        s.engine->profile().instance_multiplier));
  } else if (instance.memory() != nullptr &&
             instance.memory()->pages() > pages_before) {
    // Warm memory.grow: the cold resident was measured post-invoke and
    // already covers cold growth, so only warm deltas are reported here.
    const uint64_t delta_bytes =
        (static_cast<uint64_t>(instance.memory()->pages()) -
         pages_before) *
        65536ull;
    rep.grown = Bytes(static_cast<uint64_t>(
        static_cast<double>(delta_bytes) *
        s.engine->profile().instance_multiplier));
  }
  return rep;
}

Result<InvokeReport> run_python_request(ServeSlot::State& s, int32_t arg,
                                        double& cpu_s) {
  InvokeReport rep;
  cpu_s = kInfra.invoke_overhead_cpu_s;
  if (!s.python.interp) {
    WASMCTR_RETURN_IF_ERROR(run_python(s.script, s.argv, s.env, s.python));
    rep.cold = true;
    cpu_s += kInfra.python_handler_compile_cpu_s;
  }

  pylite::Interp& interp = *s.python.interp;
  interp.set_step_limit(interp.steps_executed() + kRequestStepBudget);
  const uint64_t before = interp.steps_executed();
  std::vector<pylite::PyValue> args;
  args.push_back(pylite::PyValue::integer(arg));
  auto r = interp.call("handle", std::move(args));
  const uint64_t steps = interp.steps_executed() - before;
  rep.instructions = steps;
  cpu_s +=
      kInfra.invoke_interp_cpu_s_per_kinst * static_cast<double>(steps) / 1000.0;
  if (!r) return r.status();
  if (std::holds_alternative<int64_t>(r->v)) {
    rep.result = static_cast<int32_t>(std::get<int64_t>(r->v));
  }
  if (rep.cold) {
    rep.resident = Bytes(static_cast<uint64_t>(
        static_cast<double>(interp.resident_bytes() +
                            s.python.program->resident_bytes()) *
        kPythonProfile.instance_multiplier));
  }
  return rep;
}

}  // namespace

}  // namespace wasmctr::engines
