// Singlepass Wasm → baseline bytecode lowering.
//
// Fuel parity with the interpreter is structural, not accidental: the
// interpreter charges one fuel unit for *every* wasm opcode it touches,
// including block/loop/end/else. The lowering therefore places a kBMark
// (charge-1) at every structural position the interpreter would execute,
// and routes branch targets around them exactly the way the
// interpreter's pc updates do:
//   * block  -> kBMark; forward branches land *after* the end's marker
//     (interpreter: end_pc + 1), fall-through executes it (interpreter
//     charges kEnd).
//   * loop   -> kBMark; the back edge lands *after* it (interpreter:
//     start_pc + 2 — the loop opcode is charged on entry only).
//   * if     -> kBBrIfNot (charge 1 = the kIf charge); the false edge
//     lands after the else-jump when an else exists, otherwise *on* the
//     end marker (interpreter: next_pc = end_pc, which charges kEnd).
//   * else   -> a live then-arm emits kBJump (charge 1 = the kElse
//     charge) landing *on* the end marker.
//   * return / function-level end / br to the function frame -> kBReturn
//     (charge 1).
#include "wasm/baseline/compiler.hpp"

#include <cassert>
#include <cstring>
#include <limits>

#include "support/byteio.hpp"
#include "wasm/opcodes.hpp"

namespace wasmctr::wasm::baseline {

uint64_t content_hash(std::span<const uint8_t> bytes) noexcept {
  uint64_t h = 14695981039346656037ull;
  for (const uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

/// Net operand-stack effect of a pure numeric op (0x45..0xc4).
int numeric_height_delta(uint8_t op) {
  if (op == kI32Eqz || op == kI64Eqz) return 0;
  if (op >= kI32Eq && op <= kF64Ge) return -1;          // comparisons
  if (op >= kI32Clz && op <= kI32Popcnt) return 0;      // i32 unary
  if (op >= kI32Add && op <= kI32Rotr) return -1;       // i32 binary
  if (op >= kI64Clz && op <= kI64Popcnt) return 0;      // i64 unary
  if (op >= kI64Add && op <= kI64Rotr) return -1;       // i64 binary
  if (op >= kF32Abs && op <= kF32Sqrt) return 0;        // f32 unary
  if (op >= kF32Add && op <= kF32Copysign) return -1;   // f32 binary
  if (op >= kF64Abs && op <= kF64Sqrt) return 0;        // f64 unary
  if (op >= kF64Add && op <= kF64Copysign) return -1;   // f64 binary
  return 0;                                             // conversions
}

/// Advance `r` past the immediates of `op` inside unreachable code.
Status skip_immediates(ByteReader& r, uint8_t op) {
  switch (op) {
    case kBr:
    case kBrIf:
    case kCall:
    case kLocalGet:
    case kLocalSet:
    case kLocalTee:
    case kGlobalGet:
    case kGlobalSet: {
      WASMCTR_ASSIGN_OR_RETURN(uint32_t imm, r.var_u32());
      (void)imm;
      return Status::ok();
    }
    case kBrTable: {
      WASMCTR_ASSIGN_OR_RETURN(uint32_t n, r.var_u32());
      for (uint32_t i = 0; i <= n; ++i) {
        WASMCTR_ASSIGN_OR_RETURN(uint32_t d, r.var_u32());
        (void)d;
      }
      return Status::ok();
    }
    case kCallIndirect: {
      WASMCTR_ASSIGN_OR_RETURN(uint32_t t, r.var_u32());
      (void)t;
      WASMCTR_ASSIGN_OR_RETURN(uint8_t tbl, r.u8());
      (void)tbl;
      return Status::ok();
    }
    case kMemorySize:
    case kMemoryGrow: {
      WASMCTR_ASSIGN_OR_RETURN(uint8_t z, r.u8());
      (void)z;
      return Status::ok();
    }
    case kI32Const: {
      WASMCTR_ASSIGN_OR_RETURN(int32_t v, r.var_s32());
      (void)v;
      return Status::ok();
    }
    case kI64Const: {
      WASMCTR_ASSIGN_OR_RETURN(int64_t v, r.var_s64());
      (void)v;
      return Status::ok();
    }
    case kF32Const: {
      WASMCTR_ASSIGN_OR_RETURN(uint32_t v, r.fixed_u32());
      (void)v;
      return Status::ok();
    }
    case kF64Const: {
      WASMCTR_ASSIGN_OR_RETURN(uint64_t v, r.fixed_u64());
      (void)v;
      return Status::ok();
    }
    case kPrefixFC: {
      WASMCTR_ASSIGN_OR_RETURN(uint32_t sub, r.var_u32());
      if (sub == kMemoryCopy) return r.skip(2);
      if (sub == kMemoryFill) return r.skip(1);
      return Status::ok();
    }
    default:
      if (op >= kI32Load && op <= kI64Store32) {
        WASMCTR_ASSIGN_OR_RETURN(uint32_t align, r.var_u32());
        (void)align;
        WASMCTR_ASSIGN_OR_RETURN(uint32_t offset, r.var_u32());
        (void)offset;
      }
      return Status::ok();
  }
}

class FunctionCompiler {
 public:
  FunctionCompiler(const Module& module, const FunctionBody& body,
                   std::vector<uint8_t>& code, CompileStats& stats)
      : module_(module), body_(body), code_(code), stats_(stats) {}

  Result<FuncMeta> compile() {
    const FuncType& sig = module_.types[body_.type_index];
    const std::size_t locals = sig.params.size() + body_.locals.size();
    if (locals > std::numeric_limits<uint16_t>::max()) {
      return unimplemented("baseline: too many locals");
    }
    num_locals_ = static_cast<uint32_t>(locals);

    FuncMeta meta;
    meta.code_begin = static_cast<uint32_t>(code_.size());
    meta.type_index = body_.type_index;
    meta.num_params = static_cast<uint16_t>(sig.params.size());
    meta.num_locals = static_cast<uint16_t>(num_locals_);
    meta.result =
        sig.results.empty() ? 0 : static_cast<uint8_t>(sig.results[0]);
    for (const ValType t : body_.locals) {
      if (t == ValType::kFuncRef) meta.has_ref_locals = 1;
    }

    frames_.push_back(
        Frame{kEnd, !sig.results.empty(), 0, 0, {}, {}, 0});
    WASMCTR_RETURN_IF_ERROR(lower());

    meta.code_end = static_cast<uint32_t>(code_.size());
    const uint64_t slots = num_locals_ + max_height_;
    if (slots > std::numeric_limits<uint16_t>::max()) {
      return unimplemented("baseline: operand stack too deep");
    }
    meta.frame_slots = static_cast<uint16_t>(slots);
    return meta;
  }

 private:
  struct Frame {
    uint8_t kind;          // kBlock / kLoop / kIf / kEnd (function frame)
    bool has_result;
    uint32_t entry_height;
    uint32_t loop_target;               // code offset, kLoop only
    std::vector<uint32_t> after_end;    // BranchRef offsets -> after marker
    std::vector<uint32_t> on_end;       // BranchRef offsets -> on marker
    uint32_t else_fixup;                // kBBrIfNot ref offset, 0 = none
  };

  // ---- emission ----
  void emit8(uint8_t v) { code_.push_back(v); }
  void emit16(uint16_t v) {
    code_.push_back(static_cast<uint8_t>(v));
    code_.push_back(static_cast<uint8_t>(v >> 8));
  }
  void emit32(uint32_t v) {
    for (int i = 0; i < 4; ++i) code_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void emit64(uint64_t v) {
    for (int i = 0; i < 8; ++i) code_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  uint32_t emit_ref(uint32_t target, uint32_t reset_height, uint8_t flags) {
    const uint32_t off = rel(code_.size());
    BranchRef ref;
    ref.target = target;
    ref.reset_slots = static_cast<uint16_t>(num_locals_ + reset_height);
    ref.flags = flags;
    uint8_t buf[sizeof(BranchRef)];
    std::memcpy(buf, &ref, sizeof(ref));
    code_.insert(code_.end(), buf, buf + sizeof(buf));
    return off;
  }
  void patch_ref(uint32_t ref_off, uint32_t target) {
    std::memcpy(code_.data() + func_begin_ + ref_off, &target, sizeof(target));
  }
  /// Offset relative to the function's code_begin (BranchRef currency).
  uint32_t rel(std::size_t abs) const {
    return static_cast<uint32_t>(abs - func_begin_);
  }
  uint32_t here() const { return rel(code_.size()); }

  /// Emit the BranchRef for a branch to relative depth `d`, recording a
  /// fixup when the target end is not yet reached.
  void emit_branch_ref(uint32_t depth) {
    const std::size_t idx = frames_.size() - 1 - depth;
    Frame& f = frames_[idx];
    if (idx == 0) {
      emit_ref(0, 0, kBranchIsReturn);
      return;
    }
    if (f.kind == kLoop) {
      emit_ref(f.loop_target, f.entry_height, 0);
      return;
    }
    const uint32_t off = emit_ref(
        0, f.entry_height, f.has_result ? kBranchCarriesResult : 0);
    f.after_end.push_back(off);
  }

  void bump(int delta) {
    height_ += delta;
    assert(height_ >= 0 && "validator guarantees non-negative stack height");
    if (static_cast<uint32_t>(height_) > max_height_)
      max_height_ = static_cast<uint32_t>(height_);
  }

  // ---- superinstruction fusion ----
  // Each helper speculatively decodes ahead on a reader copy; on a match
  // the main cursor jumps forward and the extra wasm ops are counted.
  // Fusion never crosses a structural opcode, so no branch can land
  // inside a superinstruction, and every fused sequence keeps its only
  // durable side effect (store / local write) as the final op — the
  // precondition for the all-or-nothing fuel rule in wasm/opcodes.hpp.

  bool fuse_local_get(ByteReader& r, uint32_t a) {
    ByteReader look = r;
    auto op2 = look.u8();
    if (!op2) return false;
    if (*op2 == kLocalGet) {
      auto b = look.var_u32();
      if (!b || *b > std::numeric_limits<uint16_t>::max()) return false;
      ByteReader look3 = look;
      auto op3 = look3.u8();
      if (op3 && *op3 == kI32Add) {
        emit8(kBGetGetAddI32);
        emit16(static_cast<uint16_t>(a));
        emit16(static_cast<uint16_t>(*b));
        bump(+2);
        bump(-1);
        r = look3;
        stats_.wasm_ops += 2;
      } else {
        emit8(kBGetGet);
        emit16(static_cast<uint16_t>(a));
        emit16(static_cast<uint16_t>(*b));
        bump(+2);
        r = look;
        stats_.wasm_ops += 1;
      }
      ++stats_.fused;
      return true;
    }
    if (*op2 == kI32Const) {
      auto c = look.var_s32();
      if (!c) return false;
      ByteReader look3 = look;
      auto op3 = look3.u8();
      if (op3 && *op3 == kI32Add) {
        ByteReader look4 = look3;
        auto op4 = look4.u8();
        if (op4 && (*op4 == kLocalSet || *op4 == kLocalTee)) {
          auto i2 = look4.var_u32();
          if (i2 && *i2 == a) {
            emit8(*op4 == kLocalSet ? kBIncSetI32 : kBIncTeeI32);
            emit16(static_cast<uint16_t>(a));
            emit32(static_cast<uint32_t>(*c));
            if (*op4 == kLocalTee) bump(+1);
            r = look4;
            stats_.wasm_ops += 3;
            ++stats_.fused;
            return true;
          }
        }
      }
      emit8(kBGetConstI32);
      emit16(static_cast<uint16_t>(a));
      emit32(static_cast<uint32_t>(*c));
      bump(+2);
      r = look;
      stats_.wasm_ops += 1;
      ++stats_.fused;
      return true;
    }
    return false;
  }

  bool fuse_i32_const(ByteReader& r, int32_t c) {
    ByteReader look = r;
    auto op2 = look.u8();
    if (!op2) return false;
    if (*op2 == kI32Store) {
      auto align = look.var_u32();
      auto offset = look.var_u32();
      if (!align || !offset) return false;
      emit8(kBConstStoreI32);
      emit32(static_cast<uint32_t>(c));
      emit32(*offset);
      bump(-1);  // const pushes, store pops value + base
      r = look;
      stats_.wasm_ops += 1;
      ++stats_.fused;
      return true;
    }
    if (*op2 == kLocalSet) {
      auto i = look.var_u32();
      if (!i || *i > std::numeric_limits<uint16_t>::max()) return false;
      emit8(kBConstSetI32);
      emit16(static_cast<uint16_t>(*i));
      emit32(static_cast<uint32_t>(c));
      r = look;
      stats_.wasm_ops += 1;
      ++stats_.fused;
      return true;
    }
    return false;
  }

  // ---- the single forward pass ----
  Status lower() {
    func_begin_ = code_.size() - 0;
    // code_begin recorded by caller before construction; recompute here
    // from the current write position (nothing was emitted yet).
    func_begin_ = code_.size();
    ByteReader r(body_.code);
    bool dead = false;
    uint32_t dead_depth = 0;

    while (!r.at_end()) {
      WASMCTR_ASSIGN_OR_RETURN(uint8_t op, r.u8());
      ++stats_.wasm_ops;

      if (dead) {
        switch (op) {
          case kBlock:
          case kLoop:
          case kIf: {
            WASMCTR_ASSIGN_OR_RETURN(uint8_t bt, r.u8());
            (void)bt;
            ++dead_depth;
            break;
          }
          case kElse:
            if (dead_depth == 0) {
              // Dead then-arm: the false edge enters here directly.
              Frame& f = frames_.back();
              patch_ref(f.else_fixup, here());
              f.else_fixup = 0;
              height_ = static_cast<int32_t>(f.entry_height);
              dead = false;
            }
            break;
          case kEnd:
            if (dead_depth == 0) {
              WASMCTR_RETURN_IF_ERROR(close_frame(/*live_fall=*/false));
              if (frames_.empty()) return Status::ok();
              dead = false;
            } else {
              --dead_depth;
            }
            break;
          default:
            WASMCTR_RETURN_IF_ERROR(skip_immediates(r, op));
            break;
        }
        continue;
      }

      switch (op) {
        case kUnreachable:
          emit8(kBUnreachable);
          dead = true;
          break;
        case kNop:
          emit8(kBNop);
          break;
        case kBlock: {
          WASMCTR_ASSIGN_OR_RETURN(uint8_t bt, r.u8());
          frames_.push_back(Frame{kBlock, bt != 0x40,
                                  static_cast<uint32_t>(height_), 0, {}, {},
                                  0});
          emit8(kBMark);
          break;
        }
        case kLoop: {
          WASMCTR_ASSIGN_OR_RETURN(uint8_t bt, r.u8());
          emit8(kBMark);
          frames_.push_back(Frame{kLoop, bt != 0x40,
                                  static_cast<uint32_t>(height_), here(), {},
                                  {}, 0});
          break;
        }
        case kIf: {
          WASMCTR_ASSIGN_OR_RETURN(uint8_t bt, r.u8());
          bump(-1);  // condition
          Frame f{kIf, bt != 0x40, static_cast<uint32_t>(height_), 0, {}, {},
                  0};
          emit8(kBBrIfNot);
          f.else_fixup = emit_ref(0, f.entry_height, 0);
          frames_.push_back(std::move(f));
          break;
        }
        case kElse: {
          // Live then-arm falls through: jump lands ON the end marker
          // (the interpreter charges kElse, then kEnd).
          Frame& f = frames_.back();
          emit8(kBJump);
          f.on_end.push_back(
              emit_ref(0, f.entry_height + (f.has_result ? 1 : 0), 0));
          patch_ref(f.else_fixup, here());
          f.else_fixup = 0;
          height_ = static_cast<int32_t>(f.entry_height);
          break;
        }
        case kEnd:
          WASMCTR_RETURN_IF_ERROR(close_frame(/*live_fall=*/true));
          if (frames_.empty()) return Status::ok();
          break;
        case kBr: {
          WASMCTR_ASSIGN_OR_RETURN(uint32_t depth, r.var_u32());
          if (depth == frames_.size() - 1) {
            emit8(kBReturn);
          } else {
            emit8(kBJump);
            emit_branch_ref(depth);
          }
          dead = true;
          break;
        }
        case kBrIf: {
          WASMCTR_ASSIGN_OR_RETURN(uint32_t depth, r.var_u32());
          bump(-1);
          emit8(kBBrIf);
          emit_branch_ref(depth);
          break;
        }
        case kBrTable: {
          WASMCTR_ASSIGN_OR_RETURN(uint32_t count, r.var_u32());
          bump(-1);
          emit8(kBBrTable);
          emit32(count);
          for (uint32_t i = 0; i <= count; ++i) {
            WASMCTR_ASSIGN_OR_RETURN(uint32_t depth, r.var_u32());
            emit_branch_ref(depth);
          }
          dead = true;
          break;
        }
        case kReturn:
          emit8(kBReturn);
          dead = true;
          break;
        case kCall: {
          WASMCTR_ASSIGN_OR_RETURN(uint32_t callee, r.var_u32());
          emit8(kBCall);
          emit32(callee);
          const FuncType& sig = module_.func_type(callee);
          bump(-static_cast<int>(sig.params.size()) +
               static_cast<int>(sig.results.size()));
          break;
        }
        case kCallIndirect: {
          WASMCTR_ASSIGN_OR_RETURN(uint32_t type_index, r.var_u32());
          WASMCTR_ASSIGN_OR_RETURN(uint8_t tbl, r.u8());
          (void)tbl;
          emit8(kBCallIndirect);
          emit32(type_index);
          const FuncType& sig = module_.types[type_index];
          bump(-1 - static_cast<int>(sig.params.size()) +
               static_cast<int>(sig.results.size()));
          break;
        }

        case kDrop:
          emit8(kBDrop);
          bump(-1);
          break;
        case kSelect:
          emit8(kBSelect);
          bump(-2);
          break;

        case kLocalGet: {
          WASMCTR_ASSIGN_OR_RETURN(uint32_t i, r.var_u32());
          if (i > std::numeric_limits<uint16_t>::max()) {
            return unimplemented("baseline: local index too large");
          }
          if (fuse_local_get(r, i)) break;
          emit8(kBLocalGet);
          emit16(static_cast<uint16_t>(i));
          bump(+1);
          break;
        }
        case kLocalSet: {
          WASMCTR_ASSIGN_OR_RETURN(uint32_t i, r.var_u32());
          emit8(kBLocalSet);
          emit16(static_cast<uint16_t>(i));
          bump(-1);
          break;
        }
        case kLocalTee: {
          WASMCTR_ASSIGN_OR_RETURN(uint32_t i, r.var_u32());
          emit8(kBLocalTee);
          emit16(static_cast<uint16_t>(i));
          break;
        }
        case kGlobalGet: {
          WASMCTR_ASSIGN_OR_RETURN(uint32_t i, r.var_u32());
          emit8(kBGlobalGet);
          emit16(static_cast<uint16_t>(i));
          bump(+1);
          break;
        }
        case kGlobalSet: {
          WASMCTR_ASSIGN_OR_RETURN(uint32_t i, r.var_u32());
          emit8(kBGlobalSet);
          emit16(static_cast<uint16_t>(i));
          bump(-1);
          break;
        }

        case kI32Const: {
          WASMCTR_ASSIGN_OR_RETURN(int32_t v, r.var_s32());
          if (fuse_i32_const(r, v)) break;
          emit8(kBConstI32);
          emit32(static_cast<uint32_t>(v));
          bump(+1);
          break;
        }
        case kI64Const: {
          WASMCTR_ASSIGN_OR_RETURN(int64_t v, r.var_s64());
          emit8(kBConstI64);
          emit64(static_cast<uint64_t>(v));
          bump(+1);
          break;
        }
        case kF32Const: {
          WASMCTR_ASSIGN_OR_RETURN(uint32_t bits, r.fixed_u32());
          emit8(kBConstF32);
          emit32(bits);
          bump(+1);
          break;
        }
        case kF64Const: {
          WASMCTR_ASSIGN_OR_RETURN(uint64_t bits, r.fixed_u64());
          emit8(kBConstF64);
          emit64(bits);
          bump(+1);
          break;
        }

        case kMemorySize: {
          WASMCTR_ASSIGN_OR_RETURN(uint8_t z, r.u8());
          (void)z;
          emit8(kMemorySize);
          bump(+1);
          break;
        }
        case kMemoryGrow: {
          WASMCTR_ASSIGN_OR_RETURN(uint8_t z, r.u8());
          (void)z;
          emit8(kMemoryGrow);
          break;
        }

        case kPrefixFC: {
          WASMCTR_ASSIGN_OR_RETURN(uint32_t sub, r.var_u32());
          if (sub <= kI64TruncSatF64U) {
            emit8(trunc_sat_op(sub));
          } else if (sub == kMemoryCopy) {
            WASMCTR_RETURN_IF_ERROR(r.skip(2));
            emit8(kBMemoryCopy);
            bump(-3);
          } else if (sub == kMemoryFill) {
            WASMCTR_RETURN_IF_ERROR(r.skip(1));
            emit8(kBMemoryFill);
            bump(-3);
          } else {
            return unimplemented("baseline: unknown 0xFC opcode");
          }
          break;
        }

        default: {
          if (op >= kI32Load && op <= kI64Store32) {
            WASMCTR_ASSIGN_OR_RETURN(uint32_t align, r.var_u32());
            (void)align;
            WASMCTR_ASSIGN_OR_RETURN(uint32_t offset, r.var_u32());
            emit8(op);
            emit32(offset);
            bump(op <= kI64Load32U ? 0 : -2);
            break;
          }
          if (op >= kI32Eqz && op <= kI64Extend32S) {
            emit8(op);
            bump(numeric_height_delta(op));
            break;
          }
          return unimplemented("baseline: unsupported opcode " +
                               std::to_string(op));
        }
      }
    }
    return malformed("baseline: code did not terminate with end");
  }

  /// Handle a depth-0 `end`: pop the frame, place the end marker, patch
  /// every branch that targets this block.
  Status close_frame(bool live_fall) {
    Frame f = std::move(frames_.back());
    frames_.pop_back();
    if (frames_.empty()) {
      // Function-level end: the interpreter charges it, then returns.
      if (live_fall) emit8(kBReturn);
      return Status::ok();
    }
    const bool need_marker =
        live_fall || !f.on_end.empty() || f.else_fixup != 0;
    const uint32_t mark_off = here();
    if (need_marker) emit8(kBMark);
    for (const uint32_t off : f.on_end) patch_ref(off, mark_off);
    if (f.else_fixup != 0) {
      // if-without-else: the false edge lands ON the marker, which
      // charges the kEnd the interpreter would execute.
      patch_ref(f.else_fixup, mark_off);
    }
    const uint32_t after = here();
    for (const uint32_t off : f.after_end) patch_ref(off, after);
    height_ =
        static_cast<int32_t>(f.entry_height) + (f.has_result ? 1 : 0);
    if (static_cast<uint32_t>(height_) > max_height_)
      max_height_ = static_cast<uint32_t>(height_);
    return Status::ok();
  }

  const Module& module_;
  const FunctionBody& body_;
  std::vector<uint8_t>& code_;
  CompileStats& stats_;
  std::size_t func_begin_ = 0;
  uint32_t num_locals_ = 0;
  int32_t height_ = 0;
  uint32_t max_height_ = 0;
  std::vector<Frame> frames_;
};

}  // namespace

Result<std::shared_ptr<const CompiledModule>> compile_module(
    const Module& module, std::span<const uint8_t> module_bytes) {
  CompileStats stats;
  stats.content_hash = content_hash(module_bytes);
  stats.wasm_bytes = module_bytes.size();

  const uint32_t total = module.num_funcs();
  const uint32_t num_imported =
      total - static_cast<uint32_t>(module.bodies.size());

  std::vector<uint8_t> code;
  std::vector<FuncMeta> metas(total);
  for (uint32_t fi = num_imported; fi < total; ++fi) {
    const FunctionBody& body = module.bodies[fi - num_imported];
    FunctionCompiler fc(module, body, code, stats);
    WASMCTR_ASSIGN_OR_RETURN(metas[fi], fc.compile());
  }

  std::vector<uint8_t> meta(metas.size() * sizeof(FuncMeta));
  std::memcpy(meta.data(), metas.data(), meta.size());
  return std::make_shared<const CompiledModule>(
      std::move(code), std::move(meta), num_imported, stats);
}

}  // namespace wasmctr::wasm::baseline
