#include "wasm/baseline/executor.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "wasm/exec/instance.hpp"
#include "wasm/exec/numeric.hpp"
#include "wasm/module.hpp"
#include "wasm/opcodes.hpp"

namespace wasmctr::wasm::baseline {
namespace {

constexpr uint32_t kNullFunc = ~uint32_t{0};

// Slot accessors. Invariant: i32/f32 slots always hold their value
// zero-extended to 64 bits (the Value::from_i32 convention), so u32s()
// can truncate blindly.
inline uint32_t u32s(uint64_t s) { return static_cast<uint32_t>(s); }
inline int32_t i32s(uint64_t s) {
  return static_cast<int32_t>(static_cast<uint32_t>(s));
}
inline uint64_t u64s(uint64_t s) { return s; }
inline int64_t i64s(uint64_t s) { return static_cast<int64_t>(s); }
inline float f32s(uint64_t s) {
  float f;
  const uint32_t b = static_cast<uint32_t>(s);
  std::memcpy(&f, &b, 4);
  return f;
}
inline double f64s(uint64_t s) {
  double d;
  std::memcpy(&d, &s, 8);
  return d;
}
// Slot producers (all zero-extend narrow results).
inline uint64_t u32p(uint32_t v) { return v; }
inline uint64_t u64p(uint64_t v) { return v; }
inline uint64_t f32p(float f) {
  uint32_t b;
  std::memcpy(&b, &f, 4);
  return b;
}
inline uint64_t f64p(double d) {
  uint64_t b;
  std::memcpy(&b, &d, 8);
  return b;
}

Value value_from_raw(ValType t, uint64_t bits) {
  switch (t) {
    case ValType::kI32: return Value::from_u32(static_cast<uint32_t>(bits));
    case ValType::kI64: return Value::from_u64(bits);
    case ValType::kF32: return Value::from_f32(f32s(bits));
    case ValType::kF64: return Value::from_f64(f64s(bits));
    case ValType::kFuncRef:
      return bits == ~uint64_t{0} ? Value::null_ref()
                                  : Value::func_ref(static_cast<uint32_t>(bits));
  }
  return Value::from_u32(0);
}

}  // namespace

Executor::Executor(Instance& inst)
    : inst_(inst), cm_(*inst.compiled_) {}

Status Executor::charge(uint32_t w) {
  // Tier-boundary fuel rule (see wasm/opcodes.hpp): indistinguishable
  // from the interpreter charging each of the w fused ops in sequence.
  if (!inst_.metered_) {
    inst_.retired_ += w;
    return Status::ok();
  }
  if (inst_.fuel_ >= w) {
    inst_.fuel_ -= w;
    inst_.retired_ += w;
    return Status::ok();
  }
  inst_.retired_ += inst_.fuel_ + 1;
  inst_.fuel_ = 0;
  return trap_error("all fuel consumed");
}

Status Executor::call_common(uint32_t callee, std::size_t base,
                             uint64_t*& sl, uint32_t& sp) {
  const FuncType& csig = inst_.module_.func_type(callee);
  const uint32_t n = static_cast<uint32_t>(csig.params.size());
  if (callee < inst_.num_imported_funcs_) {
    Value small[16];
    std::vector<Value> big;
    Value* argv = small;
    if (n > 16) {
      big.resize(n);
      argv = big.data();
    }
    for (uint32_t i = 0; i < n; ++i) {
      argv[i] = value_from_raw(csig.params[i], sl[sp - n + i]);
    }
    auto r = inst_.host_funcs_[callee].fn(
        inst_, std::span<const Value>(argv, n));
    if (!r) return r.status();
    sp -= n;
    sl = inst_.slot_arena_.data() + base;
    if (r->has_value()) sl[sp++] = (*r)->raw_bits();
    return Status::ok();
  }
  if (inst_.call_depth_ >= inst_.limits_.max_call_depth) {
    return trap_error("call stack exhausted");
  }
  ++inst_.call_depth_;
  const std::size_t child_base = base + sp - n;
  const Status st = run(callee, child_base);
  --inst_.call_depth_;
  if (!st.is_ok()) return st;
  sl = inst_.slot_arena_.data() + base;  // run() may reallocate the arena
  sp -= n;
  if (cm_.func_meta(callee).result != 0) {
    sl[sp++] = inst_.slot_arena_[child_base];
  }
  return Status::ok();
}

Status Executor::run(uint32_t func_index, std::size_t base) {
  const FuncMeta fm = cm_.func_meta(func_index);
  auto& arena = inst_.slot_arena_;
  const std::size_t need = base + fm.frame_slots;
  if (arena.size() < need) arena.resize(need);
  if (arena.capacity() * sizeof(uint64_t) > inst_.frame_high_water_) {
    inst_.frame_high_water_ = arena.capacity() * sizeof(uint64_t);
  }
  uint64_t* sl = arena.data() + base;
  // The arena is reused across frames: locals must not observe stale data.
  std::fill(sl + fm.num_params, sl + fm.num_locals, uint64_t{0});
  if (fm.has_ref_locals) {
    const FunctionBody& body =
        inst_.module_.bodies[func_index - cm_.num_imported()];
    for (std::size_t j = 0; j < body.locals.size(); ++j) {
      if (body.locals[j] == ValType::kFuncRef) {
        sl[fm.num_params + j] = ~uint64_t{0};
      }
    }
  }

  const uint8_t* code = cm_.code() + fm.code_begin;
  uint32_t pc = 0;
  uint32_t sp = fm.num_locals;
  const bool has_result = fm.result != 0;

  const auto rd16 = [&](uint32_t at) {
    uint16_t v;
    std::memcpy(&v, code + at, 2);
    return v;
  };
  const auto rd32 = [&](uint32_t at) {
    uint32_t v;
    std::memcpy(&v, code + at, 4);
    return v;
  };
  const auto rd64 = [&](uint32_t at) {
    uint64_t v;
    std::memcpy(&v, code + at, 8);
    return v;
  };
  const auto rdref = [&](uint32_t at) {
    BranchRef ref;
    std::memcpy(&ref, code + at, sizeof(BranchRef));
    return ref;
  };
  const auto take_branch = [&](const BranchRef& ref) {
    if (ref.flags & kBranchCarriesResult) {
      sl[ref.reset_slots] = sl[sp - 1];
      sp = static_cast<uint32_t>(ref.reset_slots) + 1;
    } else {
      sp = ref.reset_slots;
    }
    pc = ref.target;
  };

#define TRAP_IF(cond, msg) \
  do {                     \
    if (cond) return trap_error(msg); \
  } while (false)

  for (;;) {
    const uint8_t op = code[pc];
    WASMCTR_RETURN_IF_ERROR(charge(bop_weight(op)));
    switch (op) {
      case kBUnreachable:
        return trap_error("unreachable");
      case kBNop:
      case kBMark:
        ++pc;
        break;

      case kBJump: {
        const BranchRef ref = rdref(pc + 1);
        if (ref.flags & kBranchIsReturn) {
          if (has_result) sl[0] = sl[sp - 1];
          return Status::ok();
        }
        take_branch(ref);
        break;
      }
      case kBBrIf:
      case kBBrIfNot: {
        const uint32_t cond = u32s(sl[--sp]);
        if ((cond != 0) == (op == kBBrIf)) {
          const BranchRef ref = rdref(pc + 1);
          if (ref.flags & kBranchIsReturn) {
            if (has_result) sl[0] = sl[sp - 1];
            return Status::ok();
          }
          take_branch(ref);
        } else {
          pc += 1 + sizeof(BranchRef);
        }
        break;
      }
      case kBBrTable: {
        const uint32_t count = rd32(pc + 1);
        const uint32_t key = u32s(sl[--sp]);
        const uint32_t sel = key < count ? key : count;
        const BranchRef ref = rdref(pc + 5 + sel * sizeof(BranchRef));
        if (ref.flags & kBranchIsReturn) {
          if (has_result) sl[0] = sl[sp - 1];
          return Status::ok();
        }
        take_branch(ref);
        break;
      }
      case kBReturn:
        if (has_result) sl[0] = sl[sp - 1];
        return Status::ok();

      case kBCall: {
        const uint32_t callee = rd32(pc + 1);
        pc += 5;
        WASMCTR_RETURN_IF_ERROR(call_common(callee, base, sl, sp));
        break;
      }
      case kBCallIndirect: {
        const uint32_t type_index = rd32(pc + 1);
        pc += 5;
        const uint32_t entry = u32s(sl[--sp]);
        TRAP_IF(entry >= inst_.table_.size(), "undefined element");
        const uint32_t callee = inst_.table_[entry];
        TRAP_IF(callee == kNullFunc, "uninitialized element");
        const FuncType& expect = inst_.module_.types[type_index];
        const FuncType& actual = inst_.module_.func_type(callee);
        TRAP_IF(!(expect == actual), "indirect call type mismatch");
        WASMCTR_RETURN_IF_ERROR(call_common(callee, base, sl, sp));
        break;
      }

      case kBLocalGet:
        sl[sp++] = sl[rd16(pc + 1)];
        pc += 3;
        break;
      case kBLocalSet:
        sl[rd16(pc + 1)] = sl[--sp];
        pc += 3;
        break;
      case kBLocalTee:
        sl[rd16(pc + 1)] = sl[sp - 1];
        pc += 3;
        break;
      case kBGlobalGet:
        sl[sp++] = inst_.globals_[rd16(pc + 1)].raw_bits();
        pc += 3;
        break;
      case kBGlobalSet: {
        const uint16_t i = rd16(pc + 1);
        inst_.globals_[i] =
            value_from_raw(inst_.globals_[i].type(), sl[--sp]);
        pc += 3;
        break;
      }

      case kBDrop:
        --sp;
        ++pc;
        break;
      case kBSelect: {
        const uint32_t cond = u32s(sl[sp - 1]);
        if (cond == 0) sl[sp - 3] = sl[sp - 2];
        sp -= 2;
        ++pc;
        break;
      }

      case kBConstI32:
      case kBConstF32:
        sl[sp++] = rd32(pc + 1);
        pc += 5;
        break;
      case kBConstI64:
      case kBConstF64:
        sl[sp++] = rd64(pc + 1);
        pc += 9;
        break;

      case kMemorySize:
        sl[sp++] = inst_.memory_->pages();
        ++pc;
        break;
      case kMemoryGrow: {
        const uint32_t delta = u32s(sl[sp - 1]);
        sl[sp - 1] = u32p(static_cast<uint32_t>(
            static_cast<int32_t>(inst_.memory_->grow(delta))));
        ++pc;
        break;
      }

      case kBMemoryCopy: {
        const uint32_t count = u32s(sl[--sp]);
        const uint32_t src = u32s(sl[--sp]);
        const uint32_t dst = u32s(sl[--sp]);
        WASMCTR_RETURN_IF_ERROR(inst_.memory_->copy(dst, src, count));
        ++pc;
        break;
      }
      case kBMemoryFill: {
        const uint32_t count = u32s(sl[--sp]);
        const uint32_t value = u32s(sl[--sp]);
        const uint32_t dst = u32s(sl[--sp]);
        WASMCTR_RETURN_IF_ERROR(
            inst_.memory_->fill(dst, static_cast<uint8_t>(value), count));
        ++pc;
        break;
      }

      // Saturating truncations (trunc_sat_op of the FcOpcode).
      case trunc_sat_op(kI32TruncSatF32S):
        sl[sp - 1] = u32p(static_cast<uint32_t>(
            trunc_sat<int32_t>(f32s(sl[sp - 1]))));
        ++pc;
        break;
      case trunc_sat_op(kI32TruncSatF32U):
        sl[sp - 1] = u32p(trunc_sat<uint32_t>(f32s(sl[sp - 1])));
        ++pc;
        break;
      case trunc_sat_op(kI32TruncSatF64S):
        sl[sp - 1] = u32p(static_cast<uint32_t>(
            trunc_sat<int32_t>(f64s(sl[sp - 1]))));
        ++pc;
        break;
      case trunc_sat_op(kI32TruncSatF64U):
        sl[sp - 1] = u32p(trunc_sat<uint32_t>(f64s(sl[sp - 1])));
        ++pc;
        break;
      case trunc_sat_op(kI64TruncSatF32S):
        sl[sp - 1] = u64p(static_cast<uint64_t>(
            trunc_sat<int64_t>(f32s(sl[sp - 1]))));
        ++pc;
        break;
      case trunc_sat_op(kI64TruncSatF32U):
        sl[sp - 1] = u64p(trunc_sat<uint64_t>(f32s(sl[sp - 1])));
        ++pc;
        break;
      case trunc_sat_op(kI64TruncSatF64S):
        sl[sp - 1] = u64p(static_cast<uint64_t>(
            trunc_sat<int64_t>(f64s(sl[sp - 1]))));
        ++pc;
        break;
      case trunc_sat_op(kI64TruncSatF64U):
        sl[sp - 1] = u64p(trunc_sat<uint64_t>(f64s(sl[sp - 1])));
        ++pc;
        break;

      // Superinstructions.
      case kBGetGet: {
        sl[sp] = sl[rd16(pc + 1)];
        sl[sp + 1] = sl[rd16(pc + 3)];
        sp += 2;
        pc += 5;
        break;
      }
      case kBGetGetAddI32: {
        const uint32_t a = u32s(sl[rd16(pc + 1)]);
        const uint32_t b = u32s(sl[rd16(pc + 3)]);
        sl[sp++] = u32p(a + b);
        pc += 5;
        break;
      }
      case kBConstStoreI32: {
        const uint32_t value = rd32(pc + 1);
        const uint32_t offset = rd32(pc + 5);
        const uint32_t addr = u32s(sl[--sp]);
        WASMCTR_RETURN_IF_ERROR(inst_.memory_->store(addr, offset, value));
        pc += 9;
        break;
      }
      case kBGetConstI32: {
        sl[sp] = sl[rd16(pc + 1)];
        sl[sp + 1] = rd32(pc + 3);
        sp += 2;
        pc += 7;
        break;
      }
      case kBConstSetI32:
        sl[rd16(pc + 1)] = rd32(pc + 3);
        pc += 7;
        break;
      case kBIncSetI32: {
        const uint16_t a = rd16(pc + 1);
        sl[a] = u32p(u32s(sl[a]) + rd32(pc + 3));
        pc += 7;
        break;
      }
      case kBIncTeeI32: {
        const uint16_t a = rd16(pc + 1);
        sl[a] = u32p(u32s(sl[a]) + rd32(pc + 3));
        sl[sp++] = sl[a];
        pc += 7;
        break;
      }

      default: {
        if (op >= kI32Load && op <= kI64Store32) {
          const uint32_t offset = rd32(pc + 1);
          pc += 5;
          LinearMemory& mem = *inst_.memory_;
          if (op <= kI64Load32U) {  // loads
            const uint32_t addr = u32s(sl[sp - 1]);
            switch (op) {
              case kI32Load: {
                WASMCTR_ASSIGN_OR_RETURN(uint32_t v,
                                         mem.load<uint32_t>(addr, offset));
                sl[sp - 1] = u32p(v);
                break;
              }
              case kI64Load: {
                WASMCTR_ASSIGN_OR_RETURN(uint64_t v,
                                         mem.load<uint64_t>(addr, offset));
                sl[sp - 1] = v;
                break;
              }
              case kF32Load: {
                WASMCTR_ASSIGN_OR_RETURN(float v,
                                         mem.load<float>(addr, offset));
                sl[sp - 1] = f32p(v);
                break;
              }
              case kF64Load: {
                WASMCTR_ASSIGN_OR_RETURN(double v,
                                         mem.load<double>(addr, offset));
                sl[sp - 1] = f64p(v);
                break;
              }
              case kI32Load8S: {
                WASMCTR_ASSIGN_OR_RETURN(int8_t v,
                                         mem.load<int8_t>(addr, offset));
                sl[sp - 1] = u32p(static_cast<uint32_t>(
                    static_cast<int32_t>(v)));
                break;
              }
              case kI32Load8U: {
                WASMCTR_ASSIGN_OR_RETURN(uint8_t v,
                                         mem.load<uint8_t>(addr, offset));
                sl[sp - 1] = u32p(v);
                break;
              }
              case kI32Load16S: {
                WASMCTR_ASSIGN_OR_RETURN(int16_t v,
                                         mem.load<int16_t>(addr, offset));
                sl[sp - 1] = u32p(static_cast<uint32_t>(
                    static_cast<int32_t>(v)));
                break;
              }
              case kI32Load16U: {
                WASMCTR_ASSIGN_OR_RETURN(uint16_t v,
                                         mem.load<uint16_t>(addr, offset));
                sl[sp - 1] = u32p(v);
                break;
              }
              case kI64Load8S: {
                WASMCTR_ASSIGN_OR_RETURN(int8_t v,
                                         mem.load<int8_t>(addr, offset));
                sl[sp - 1] = u64p(static_cast<uint64_t>(
                    static_cast<int64_t>(v)));
                break;
              }
              case kI64Load8U: {
                WASMCTR_ASSIGN_OR_RETURN(uint8_t v,
                                         mem.load<uint8_t>(addr, offset));
                sl[sp - 1] = u64p(v);
                break;
              }
              case kI64Load16S: {
                WASMCTR_ASSIGN_OR_RETURN(int16_t v,
                                         mem.load<int16_t>(addr, offset));
                sl[sp - 1] = u64p(static_cast<uint64_t>(
                    static_cast<int64_t>(v)));
                break;
              }
              case kI64Load16U: {
                WASMCTR_ASSIGN_OR_RETURN(uint16_t v,
                                         mem.load<uint16_t>(addr, offset));
                sl[sp - 1] = u64p(v);
                break;
              }
              case kI64Load32S: {
                WASMCTR_ASSIGN_OR_RETURN(int32_t v,
                                         mem.load<int32_t>(addr, offset));
                sl[sp - 1] = u64p(static_cast<uint64_t>(
                    static_cast<int64_t>(v)));
                break;
              }
              case kI64Load32U: {
                WASMCTR_ASSIGN_OR_RETURN(uint32_t v,
                                         mem.load<uint32_t>(addr, offset));
                sl[sp - 1] = u64p(v);
                break;
              }
              default:
                return internal_error("unhandled load");
            }
          } else {  // stores
            const uint64_t v = sl[--sp];
            const uint32_t addr = u32s(sl[--sp]);
            switch (op) {
              case kI32Store:
                WASMCTR_RETURN_IF_ERROR(mem.store(addr, offset, u32s(v)));
                break;
              case kI64Store:
                WASMCTR_RETURN_IF_ERROR(mem.store(addr, offset, v));
                break;
              case kF32Store:
                WASMCTR_RETURN_IF_ERROR(mem.store(addr, offset, f32s(v)));
                break;
              case kF64Store:
                WASMCTR_RETURN_IF_ERROR(mem.store(addr, offset, f64s(v)));
                break;
              case kI32Store8:
                WASMCTR_RETURN_IF_ERROR(
                    mem.store(addr, offset, static_cast<uint8_t>(v)));
                break;
              case kI32Store16:
                WASMCTR_RETURN_IF_ERROR(
                    mem.store(addr, offset, static_cast<uint16_t>(v)));
                break;
              case kI64Store8:
                WASMCTR_RETURN_IF_ERROR(
                    mem.store(addr, offset, static_cast<uint8_t>(v)));
                break;
              case kI64Store16:
                WASMCTR_RETURN_IF_ERROR(
                    mem.store(addr, offset, static_cast<uint16_t>(v)));
                break;
              case kI64Store32:
                WASMCTR_RETURN_IF_ERROR(
                    mem.store(addr, offset, static_cast<uint32_t>(v)));
                break;
              default:
                return internal_error("unhandled store");
            }
          }
          break;
        }

        // Pure numeric ops (no immediates, opcode bytes shared with wasm).
        ++pc;
        switch (op) {
          case kI32Eqz:
            sl[sp - 1] = u32s(sl[sp - 1]) == 0 ? 1 : 0;
            break;
          case kI64Eqz:
            sl[sp - 1] = sl[sp - 1] == 0 ? 1 : 0;
            break;

#define CMP(opcode, GET, cmp)                          \
  case opcode: {                                       \
    const auto b = GET(sl[sp - 1]);                    \
    const auto a = GET(sl[sp - 2]);                    \
    sl[sp - 2] = (a cmp b) ? 1 : 0;                    \
    --sp;                                              \
    break;                                             \
  }
          CMP(kI32Eq, u32s, ==)
          CMP(kI32Ne, u32s, !=)
          CMP(kI32LtS, i32s, <)
          CMP(kI32LtU, u32s, <)
          CMP(kI32GtS, i32s, >)
          CMP(kI32GtU, u32s, >)
          CMP(kI32LeS, i32s, <=)
          CMP(kI32LeU, u32s, <=)
          CMP(kI32GeS, i32s, >=)
          CMP(kI32GeU, u32s, >=)
          CMP(kI64Eq, u64s, ==)
          CMP(kI64Ne, u64s, !=)
          CMP(kI64LtS, i64s, <)
          CMP(kI64LtU, u64s, <)
          CMP(kI64GtS, i64s, >)
          CMP(kI64GtU, u64s, >)
          CMP(kI64LeS, i64s, <=)
          CMP(kI64LeU, u64s, <=)
          CMP(kI64GeS, i64s, >=)
          CMP(kI64GeU, u64s, >=)
          CMP(kF32Eq, f32s, ==)
          CMP(kF32Ne, f32s, !=)
          CMP(kF32Lt, f32s, <)
          CMP(kF32Gt, f32s, >)
          CMP(kF32Le, f32s, <=)
          CMP(kF32Ge, f32s, >=)
          CMP(kF64Eq, f64s, ==)
          CMP(kF64Ne, f64s, !=)
          CMP(kF64Lt, f64s, <)
          CMP(kF64Gt, f64s, >)
          CMP(kF64Le, f64s, <=)
          CMP(kF64Ge, f64s, >=)
#undef CMP

          case kI32Clz:
            sl[sp - 1] = u32p(static_cast<uint32_t>(
                std::countl_zero(u32s(sl[sp - 1]))));
            break;
          case kI32Ctz:
            sl[sp - 1] = u32p(static_cast<uint32_t>(
                std::countr_zero(u32s(sl[sp - 1]))));
            break;
          case kI32Popcnt:
            sl[sp - 1] = u32p(static_cast<uint32_t>(
                std::popcount(u32s(sl[sp - 1]))));
            break;
          case kI64Clz:
            sl[sp - 1] = static_cast<uint64_t>(
                std::countl_zero(sl[sp - 1]));
            break;
          case kI64Ctz:
            sl[sp - 1] = static_cast<uint64_t>(
                std::countr_zero(sl[sp - 1]));
            break;
          case kI64Popcnt:
            sl[sp - 1] = static_cast<uint64_t>(
                std::popcount(sl[sp - 1]));
            break;

#define BINOP(opcode, GET, PUT, expr)                  \
  case opcode: {                                       \
    const auto b = GET(sl[sp - 1]);                    \
    const auto a = GET(sl[sp - 2]);                    \
    sl[sp - 2] = PUT(expr);                            \
    --sp;                                              \
    break;                                             \
  }
          BINOP(kI32Add, u32s, u32p, a + b)
          BINOP(kI32Sub, u32s, u32p, a - b)
          BINOP(kI32Mul, u32s, u32p, a * b)
          BINOP(kI32And, u32s, u32p, a & b)
          BINOP(kI32Or, u32s, u32p, a | b)
          BINOP(kI32Xor, u32s, u32p, a ^ b)
          BINOP(kI32Shl, u32s, u32p, a << (b & 31))
          BINOP(kI32ShrU, u32s, u32p, a >> (b & 31))
          BINOP(kI32Rotl, u32s, u32p, std::rotl(a, static_cast<int>(b & 31)))
          BINOP(kI32Rotr, u32s, u32p, std::rotr(a, static_cast<int>(b & 31)))
          BINOP(kI64Add, u64s, u64p, a + b)
          BINOP(kI64Sub, u64s, u64p, a - b)
          BINOP(kI64Mul, u64s, u64p, a * b)
          BINOP(kI64And, u64s, u64p, a & b)
          BINOP(kI64Or, u64s, u64p, a | b)
          BINOP(kI64Xor, u64s, u64p, a ^ b)
          BINOP(kI64Shl, u64s, u64p, a << (b & 63))
          BINOP(kI64ShrU, u64s, u64p, a >> (b & 63))
          BINOP(kI64Rotl, u64s, u64p, std::rotl(a, static_cast<int>(b & 63)))
          BINOP(kI64Rotr, u64s, u64p, std::rotr(a, static_cast<int>(b & 63)))
          BINOP(kF32Add, f32s, f32p, a + b)
          BINOP(kF32Sub, f32s, f32p, a - b)
          BINOP(kF32Mul, f32s, f32p, a * b)
          BINOP(kF32Div, f32s, f32p, a / b)
          BINOP(kF32Min, f32s, f32p, wasm_fmin(a, b))
          BINOP(kF32Max, f32s, f32p, wasm_fmax(a, b))
          BINOP(kF32Copysign, f32s, f32p, std::copysign(a, b))
          BINOP(kF64Add, f64s, f64p, a + b)
          BINOP(kF64Sub, f64s, f64p, a - b)
          BINOP(kF64Mul, f64s, f64p, a * b)
          BINOP(kF64Div, f64s, f64p, a / b)
          BINOP(kF64Min, f64s, f64p, wasm_fmin(a, b))
          BINOP(kF64Max, f64s, f64p, wasm_fmax(a, b))
          BINOP(kF64Copysign, f64s, f64p, std::copysign(a, b))
#undef BINOP

          case kI32ShrS: {
            const uint32_t b = u32s(sl[sp - 1]);
            const int32_t a = i32s(sl[sp - 2]);
            sl[sp - 2] = u32p(static_cast<uint32_t>(a >> (b & 31)));
            --sp;
            break;
          }
          case kI64ShrS: {
            const uint64_t b = sl[sp - 1];
            const int64_t a = i64s(sl[sp - 2]);
            sl[sp - 2] = static_cast<uint64_t>(a >> (b & 63));
            --sp;
            break;
          }

          case kI32DivS: {
            const int32_t b = i32s(sl[sp - 1]);
            const int32_t a = i32s(sl[sp - 2]);
            TRAP_IF(b == 0, "integer divide by zero");
            TRAP_IF(a == std::numeric_limits<int32_t>::min() && b == -1,
                    "integer overflow");
            sl[sp - 2] = u32p(static_cast<uint32_t>(a / b));
            --sp;
            break;
          }
          case kI32DivU: {
            const uint32_t b = u32s(sl[sp - 1]);
            const uint32_t a = u32s(sl[sp - 2]);
            TRAP_IF(b == 0, "integer divide by zero");
            sl[sp - 2] = u32p(a / b);
            --sp;
            break;
          }
          case kI32RemS: {
            const int32_t b = i32s(sl[sp - 1]);
            const int32_t a = i32s(sl[sp - 2]);
            TRAP_IF(b == 0, "integer divide by zero");
            const int32_t r =
                (a == std::numeric_limits<int32_t>::min() && b == -1) ? 0
                                                                      : a % b;
            sl[sp - 2] = u32p(static_cast<uint32_t>(r));
            --sp;
            break;
          }
          case kI32RemU: {
            const uint32_t b = u32s(sl[sp - 1]);
            const uint32_t a = u32s(sl[sp - 2]);
            TRAP_IF(b == 0, "integer divide by zero");
            sl[sp - 2] = u32p(a % b);
            --sp;
            break;
          }
          case kI64DivS: {
            const int64_t b = i64s(sl[sp - 1]);
            const int64_t a = i64s(sl[sp - 2]);
            TRAP_IF(b == 0, "integer divide by zero");
            TRAP_IF(a == std::numeric_limits<int64_t>::min() && b == -1,
                    "integer overflow");
            sl[sp - 2] = static_cast<uint64_t>(a / b);
            --sp;
            break;
          }
          case kI64DivU: {
            const uint64_t b = sl[sp - 1];
            const uint64_t a = sl[sp - 2];
            TRAP_IF(b == 0, "integer divide by zero");
            sl[sp - 2] = a / b;
            --sp;
            break;
          }
          case kI64RemS: {
            const int64_t b = i64s(sl[sp - 1]);
            const int64_t a = i64s(sl[sp - 2]);
            TRAP_IF(b == 0, "integer divide by zero");
            const int64_t r =
                (a == std::numeric_limits<int64_t>::min() && b == -1) ? 0
                                                                      : a % b;
            sl[sp - 2] = static_cast<uint64_t>(r);
            --sp;
            break;
          }
          case kI64RemU: {
            const uint64_t b = sl[sp - 1];
            const uint64_t a = sl[sp - 2];
            TRAP_IF(b == 0, "integer divide by zero");
            sl[sp - 2] = a % b;
            --sp;
            break;
          }

#define UNOP(opcode, GET, PUT, expr)            \
  case opcode: {                                \
    const auto a = GET(sl[sp - 1]);             \
    sl[sp - 1] = PUT(expr);                     \
    break;                                      \
  }
          UNOP(kF32Abs, f32s, f32p, std::fabs(a))
          UNOP(kF32Neg, f32s, f32p, -a)
          UNOP(kF32Ceil, f32s, f32p, std::ceil(a))
          UNOP(kF32Floor, f32s, f32p, std::floor(a))
          UNOP(kF32Trunc, f32s, f32p, std::trunc(a))
          UNOP(kF32Nearest, f32s, f32p, std::nearbyint(a))
          UNOP(kF32Sqrt, f32s, f32p, std::sqrt(a))
          UNOP(kF64Abs, f64s, f64p, std::fabs(a))
          UNOP(kF64Neg, f64s, f64p, -a)
          UNOP(kF64Ceil, f64s, f64p, std::ceil(a))
          UNOP(kF64Floor, f64s, f64p, std::floor(a))
          UNOP(kF64Trunc, f64s, f64p, std::trunc(a))
          UNOP(kF64Nearest, f64s, f64p, std::nearbyint(a))
          UNOP(kF64Sqrt, f64s, f64p, std::sqrt(a))
          UNOP(kI32WrapI64, u64s, u32p, static_cast<uint32_t>(a))
          UNOP(kI64ExtendI32S, i32s, u64p,
               static_cast<uint64_t>(static_cast<int64_t>(a)))
          UNOP(kI64ExtendI32U, u32s, u64p, static_cast<uint64_t>(a))
          UNOP(kF32ConvertI32S, i32s, f32p, static_cast<float>(a))
          UNOP(kF32ConvertI32U, u32s, f32p, static_cast<float>(a))
          UNOP(kF32ConvertI64S, i64s, f32p, static_cast<float>(a))
          UNOP(kF32ConvertI64U, u64s, f32p, static_cast<float>(a))
          UNOP(kF32DemoteF64, f64s, f32p, static_cast<float>(a))
          UNOP(kF64ConvertI32S, i32s, f64p, static_cast<double>(a))
          UNOP(kF64ConvertI32U, u32s, f64p, static_cast<double>(a))
          UNOP(kF64ConvertI64S, i64s, f64p, static_cast<double>(a))
          UNOP(kF64ConvertI64U, u64s, f64p, static_cast<double>(a))
          UNOP(kF64PromoteF32, f32s, f64p, static_cast<double>(a))
          UNOP(kI32Extend8S, u32s, u32p,
               static_cast<uint32_t>(static_cast<int32_t>(
                   static_cast<int8_t>(a))))
          UNOP(kI32Extend16S, u32s, u32p,
               static_cast<uint32_t>(static_cast<int32_t>(
                   static_cast<int16_t>(a))))
          UNOP(kI64Extend8S, u64s, u64p,
               static_cast<uint64_t>(static_cast<int64_t>(
                   static_cast<int8_t>(a))))
          UNOP(kI64Extend16S, u64s, u64p,
               static_cast<uint64_t>(static_cast<int64_t>(
                   static_cast<int16_t>(a))))
          UNOP(kI64Extend32S, u64s, u64p,
               static_cast<uint64_t>(static_cast<int64_t>(
                   static_cast<int32_t>(a))))
#undef UNOP

          // Reinterpretations are no-ops on raw slots (i32/f32 slots are
          // already zero-extended).
          case kI32ReinterpretF32:
          case kI64ReinterpretF64:
          case kF32ReinterpretI32:
          case kF64ReinterpretI64:
            break;

          case kI32TruncF32S: {
            auto r = trunc_checked<int32_t>(f32s(sl[sp - 1]));
            if (!r) return r.status();
            sl[sp - 1] = u32p(static_cast<uint32_t>(*r));
            break;
          }
          case kI32TruncF32U: {
            auto r = trunc_checked<uint32_t>(f32s(sl[sp - 1]));
            if (!r) return r.status();
            sl[sp - 1] = u32p(*r);
            break;
          }
          case kI32TruncF64S: {
            auto r = trunc_checked<int32_t>(f64s(sl[sp - 1]));
            if (!r) return r.status();
            sl[sp - 1] = u32p(static_cast<uint32_t>(*r));
            break;
          }
          case kI32TruncF64U: {
            auto r = trunc_checked<uint32_t>(f64s(sl[sp - 1]));
            if (!r) return r.status();
            sl[sp - 1] = u32p(*r);
            break;
          }
          case kI64TruncF32S: {
            auto r = trunc_checked<int64_t>(f32s(sl[sp - 1]));
            if (!r) return r.status();
            sl[sp - 1] = u64p(static_cast<uint64_t>(*r));
            break;
          }
          case kI64TruncF32U: {
            auto r = trunc_checked<uint64_t>(f32s(sl[sp - 1]));
            if (!r) return r.status();
            sl[sp - 1] = u64p(*r);
            break;
          }
          case kI64TruncF64S: {
            auto r = trunc_checked<int64_t>(f64s(sl[sp - 1]));
            if (!r) return r.status();
            sl[sp - 1] = u64p(static_cast<uint64_t>(*r));
            break;
          }
          case kI64TruncF64U: {
            auto r = trunc_checked<uint64_t>(f64s(sl[sp - 1]));
            if (!r) return r.status();
            sl[sp - 1] = u64p(*r);
            break;
          }

          default:
            return internal_error("unhandled baseline opcode 0x" +
                                  std::to_string(op));
        }
        break;
      }
    }
  }
#undef TRAP_IF
}

InvokeResult Executor::call_function(uint32_t func_index,
                                     std::span<const Value> args) {
  if (func_index < inst_.num_imported_funcs_) {
    return inst_.host_funcs_[func_index].fn(inst_, args);
  }
  if (inst_.call_depth_ >= inst_.limits_.max_call_depth) {
    return trap_error("call stack exhausted");
  }
  const FuncMeta fm = cm_.func_meta(func_index);
  auto& arena = inst_.slot_arena_;
  if (arena.size() < args.size()) arena.resize(args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    arena[i] = args[i].raw_bits();
  }
  ++inst_.call_depth_;
  const Status st = run(func_index, 0);
  --inst_.call_depth_;
  if (!st.is_ok()) return st;
  if (fm.result == 0) return std::optional<Value>();
  return std::optional<Value>(value_from_raw(
      static_cast<ValType>(fm.result), inst_.slot_arena_[0]));
}

}  // namespace wasmctr::wasm::baseline
