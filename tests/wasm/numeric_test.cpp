// Parameterized coverage of the numeric instruction set: each case builds a
// one-instruction module, runs it, and compares against a host-computed
// reference.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "wasm/builder.hpp"
#include "wasm/decoder.hpp"
#include "wasm/exec/instance.hpp"
#include "wasm/opcodes.hpp"
#include "wasm/validator.hpp"

namespace wasmctr::wasm {
namespace {

/// Run a single binary i32 op over two operands.
uint32_t run_i32_binop(uint8_t opcode, uint32_t a, uint32_t b) {
  ModuleBuilder mb;
  FnBuilder& f = mb.add_function("f", {ValType::kI32, ValType::kI32},
                                 {ValType::kI32});
  f.local_get(0).local_get(1).op(opcode).end();
  auto m = decode_module(mb.build());
  EXPECT_TRUE(m.is_ok());
  EXPECT_TRUE(validate_module(*m).is_ok());
  ImportResolver empty;
  auto inst = Instance::instantiate(std::move(*m), empty);
  EXPECT_TRUE(inst.is_ok());
  const Value args[] = {Value::from_u32(a), Value::from_u32(b)};
  auto r = (*inst)->invoke("f", args);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return (**r).u32();
}

struct I32Case {
  const char* name;
  uint8_t opcode;
  uint32_t (*reference)(uint32_t, uint32_t);
};

// Stable ctest names: print the case by its name, not its pointer bytes.
void PrintTo(const I32Case& c, std::ostream* os) { *os << c.name; }

uint32_t ref_add(uint32_t a, uint32_t b) { return a + b; }
uint32_t ref_sub(uint32_t a, uint32_t b) { return a - b; }
uint32_t ref_mul(uint32_t a, uint32_t b) { return a * b; }
uint32_t ref_and(uint32_t a, uint32_t b) { return a & b; }
uint32_t ref_or(uint32_t a, uint32_t b) { return a | b; }
uint32_t ref_xor(uint32_t a, uint32_t b) { return a ^ b; }
uint32_t ref_shl(uint32_t a, uint32_t b) { return a << (b & 31); }
uint32_t ref_shru(uint32_t a, uint32_t b) { return a >> (b & 31); }
uint32_t ref_shrs(uint32_t a, uint32_t b) {
  return static_cast<uint32_t>(static_cast<int32_t>(a) >> (b & 31));
}
uint32_t ref_rotl(uint32_t a, uint32_t b) {
  return std::rotl(a, static_cast<int>(b & 31));
}
uint32_t ref_rotr(uint32_t a, uint32_t b) {
  return std::rotr(a, static_cast<int>(b & 31));
}
uint32_t ref_lts(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a) < static_cast<int32_t>(b) ? 1 : 0;
}
uint32_t ref_ltu(uint32_t a, uint32_t b) { return a < b ? 1 : 0; }
uint32_t ref_ges(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a) >= static_cast<int32_t>(b) ? 1 : 0;
}
uint32_t ref_eq(uint32_t a, uint32_t b) { return a == b ? 1 : 0; }
uint32_t ref_ne(uint32_t a, uint32_t b) { return a != b ? 1 : 0; }

class I32BinopSweep : public ::testing::TestWithParam<I32Case> {};

TEST_P(I32BinopSweep, MatchesReference) {
  const I32Case& c = GetParam();
  const uint32_t interesting[] = {0u,
                                  1u,
                                  2u,
                                  31u,
                                  32u,
                                  0x7fffffffu,
                                  0x80000000u,
                                  0xffffffffu,
                                  0x12345678u,
                                  0xdeadbeefu};
  for (const uint32_t a : interesting) {
    for (const uint32_t b : interesting) {
      EXPECT_EQ(run_i32_binop(c.opcode, a, b), c.reference(a, b))
          << c.name << "(" << a << ", " << b << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, I32BinopSweep,
    ::testing::Values(I32Case{"add", kI32Add, ref_add},
                      I32Case{"sub", kI32Sub, ref_sub},
                      I32Case{"mul", kI32Mul, ref_mul},
                      I32Case{"and", kI32And, ref_and},
                      I32Case{"or", kI32Or, ref_or},
                      I32Case{"xor", kI32Xor, ref_xor},
                      I32Case{"shl", kI32Shl, ref_shl},
                      I32Case{"shr_u", kI32ShrU, ref_shru},
                      I32Case{"shr_s", kI32ShrS, ref_shrs},
                      I32Case{"rotl", kI32Rotl, ref_rotl},
                      I32Case{"rotr", kI32Rotr, ref_rotr},
                      I32Case{"lt_s", kI32LtS, ref_lts},
                      I32Case{"lt_u", kI32LtU, ref_ltu},
                      I32Case{"ge_s", kI32GeS, ref_ges},
                      I32Case{"eq", kI32Eq, ref_eq},
                      I32Case{"ne", kI32Ne, ref_ne}),
    [](const auto& info) { return info.param.name; });

/// Unary op helper.
template <typename ArgMaker>
Value run_unop(uint8_t opcode, ValType in, ValType out, ArgMaker make_arg) {
  ModuleBuilder mb;
  FnBuilder& f = mb.add_function("f", {in}, {out});
  f.local_get(0).op(opcode).end();
  auto m = decode_module(mb.build());
  EXPECT_TRUE(validate_module(*m).is_ok());
  ImportResolver empty;
  auto inst = Instance::instantiate(std::move(*m), empty);
  const Value arg = make_arg();
  auto r = (*inst)->invoke("f", std::span<const Value>(&arg, 1));
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return **r;
}

TEST(NumericTest, CountingOps) {
  auto clz = [](uint32_t v) {
    return run_unop(kI32Clz, ValType::kI32, ValType::kI32,
                    [v] { return Value::from_u32(v); })
        .u32();
  };
  EXPECT_EQ(clz(0), 32u);
  EXPECT_EQ(clz(1), 31u);
  EXPECT_EQ(clz(0x80000000u), 0u);
  auto ctz = [](uint32_t v) {
    return run_unop(kI32Ctz, ValType::kI32, ValType::kI32,
                    [v] { return Value::from_u32(v); })
        .u32();
  };
  EXPECT_EQ(ctz(0), 32u);
  EXPECT_EQ(ctz(8), 3u);
  auto popcnt = [](uint32_t v) {
    return run_unop(kI32Popcnt, ValType::kI32, ValType::kI32,
                    [v] { return Value::from_u32(v); })
        .u32();
  };
  EXPECT_EQ(popcnt(0xffffffffu), 32u);
  EXPECT_EQ(popcnt(0x10101010u), 4u);
}

TEST(NumericTest, SignExtensionOps) {
  EXPECT_EQ(run_unop(kI32Extend8S, ValType::kI32, ValType::kI32,
                     [] { return Value::from_u32(0x80); })
                .i32(),
            -128);
  EXPECT_EQ(run_unop(kI32Extend16S, ValType::kI32, ValType::kI32,
                     [] { return Value::from_u32(0x8000); })
                .i32(),
            -32768);
  EXPECT_EQ(run_unop(kI64Extend32S, ValType::kI64, ValType::kI64,
                     [] { return Value::from_u64(0x80000000u); })
                .i64(),
            -2147483648LL);
}

TEST(NumericTest, WrapAndExtend) {
  EXPECT_EQ(run_unop(kI32WrapI64, ValType::kI64, ValType::kI32,
                     [] { return Value::from_u64(0x100000002ull); })
                .u32(),
            2u);
  EXPECT_EQ(run_unop(kI64ExtendI32S, ValType::kI32, ValType::kI64,
                     [] { return Value::from_i32(-1); })
                .i64(),
            -1);
  EXPECT_EQ(run_unop(kI64ExtendI32U, ValType::kI32, ValType::kI64,
                     [] { return Value::from_i32(-1); })
                .u64(),
            0xffffffffull);
}

TEST(NumericTest, FloatArithmetic) {
  EXPECT_FLOAT_EQ(run_unop(kF32Sqrt, ValType::kF32, ValType::kF32,
                           [] { return Value::from_f32(9.0f); })
                      .f32(),
                  3.0f);
  EXPECT_DOUBLE_EQ(run_unop(kF64Neg, ValType::kF64, ValType::kF64,
                            [] { return Value::from_f64(2.5); })
                       .f64(),
                   -2.5);
  EXPECT_DOUBLE_EQ(run_unop(kF64Floor, ValType::kF64, ValType::kF64,
                            [] { return Value::from_f64(-1.5); })
                       .f64(),
                   -2.0);
  // nearest = round-half-to-even
  EXPECT_DOUBLE_EQ(run_unop(kF64Nearest, ValType::kF64, ValType::kF64,
                            [] { return Value::from_f64(2.5); })
                       .f64(),
                   2.0);
  EXPECT_DOUBLE_EQ(run_unop(kF64Nearest, ValType::kF64, ValType::kF64,
                            [] { return Value::from_f64(3.5); })
                       .f64(),
                   4.0);
}

double run_f64_binop(uint8_t opcode, double a, double b) {
  ModuleBuilder mb;
  FnBuilder& f = mb.add_function("f", {ValType::kF64, ValType::kF64},
                                 {ValType::kF64});
  f.local_get(0).local_get(1).op(opcode).end();
  auto m = decode_module(mb.build());
  ImportResolver empty;
  auto inst = Instance::instantiate(std::move(*m), empty);
  const Value args[] = {Value::from_f64(a), Value::from_f64(b)};
  auto r = (*inst)->invoke("f", args);
  EXPECT_TRUE(r.is_ok());
  return (**r).f64();
}

TEST(NumericTest, FloatMinMaxSpecSemantics) {
  EXPECT_TRUE(std::isnan(run_f64_binop(kF64Min, 1.0, std::nan(""))));
  EXPECT_TRUE(std::isnan(run_f64_binop(kF64Max, std::nan(""), 1.0)));
  EXPECT_TRUE(
      std::signbit(run_f64_binop(kF64Min, 0.0, -0.0)))
      << "min(+0,-0) = -0";
  EXPECT_FALSE(
      std::signbit(run_f64_binop(kF64Max, 0.0, -0.0)))
      << "max(+0,-0) = +0";
  EXPECT_DOUBLE_EQ(run_f64_binop(kF64Min, 3.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(run_f64_binop(kF64Max, 3.0, 2.0), 3.0);
}

TEST(NumericTest, TruncationTraps) {
  auto trunc_i32_f64 = [](double v) {
    ModuleBuilder mb;
    FnBuilder& f = mb.add_function("f", {ValType::kF64}, {ValType::kI32});
    f.local_get(0).op(kI32TruncF64S).end();
    auto m = decode_module(mb.build());
    ImportResolver empty;
    auto inst = Instance::instantiate(std::move(*m), empty);
    const Value arg = Value::from_f64(v);
    return (*inst)->invoke("f", std::span<const Value>(&arg, 1));
  };
  auto ok = trunc_i32_f64(-3.7);
  ASSERT_TRUE(ok.is_ok());
  EXPECT_EQ((**ok).i32(), -3);
  EXPECT_EQ(trunc_i32_f64(std::nan("")).status().code(), ErrorCode::kTrap);
  EXPECT_EQ(trunc_i32_f64(3e9).status().code(), ErrorCode::kTrap);
  EXPECT_EQ(trunc_i32_f64(-3e9).status().code(), ErrorCode::kTrap);
  auto edge = trunc_i32_f64(2147483647.0);
  ASSERT_TRUE(edge.is_ok());
  EXPECT_EQ((**edge).i32(), 2147483647);
}

TEST(NumericTest, SaturatingTruncationNeverTraps) {
  // local.get 0; 0xFC 0x02 (i32.trunc_sat_f64_s); end
  ModuleBuilder mb;
  FnBuilder& f = mb.add_function("f", {ValType::kF64}, {ValType::kI32});
  f.local_get(0).op(kPrefixFC).op(0x02).end();  // i32.trunc_sat_f64_s
  auto m = decode_module(mb.build());
  ASSERT_TRUE(m.is_ok());
  ASSERT_TRUE(validate_module(*m).is_ok());
  ImportResolver empty;
  auto inst = Instance::instantiate(std::move(*m), empty);
  auto run = [&](double v) {
    const Value arg = Value::from_f64(v);
    auto r = (*inst)->invoke("f", std::span<const Value>(&arg, 1));
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return (**r).i32();
  };
  EXPECT_EQ(run(std::nan("")), 0);
  EXPECT_EQ(run(1e20), std::numeric_limits<int32_t>::max());
  EXPECT_EQ(run(-1e20), std::numeric_limits<int32_t>::min());
  EXPECT_EQ(run(-42.9), -42);
}

TEST(NumericTest, ReinterpretRoundtrips) {
  const double d = 1234.5678;
  ModuleBuilder mb;
  FnBuilder& f = mb.add_function("f", {ValType::kF64}, {ValType::kF64});
  f.local_get(0).op(kI64ReinterpretF64).op(kF64ReinterpretI64).end();
  auto m = decode_module(mb.build());
  ImportResolver empty;
  auto inst = Instance::instantiate(std::move(*m), empty);
  const Value arg = Value::from_f64(d);
  auto r = (*inst)->invoke("f", std::span<const Value>(&arg, 1));
  ASSERT_TRUE(r.is_ok());
  EXPECT_DOUBLE_EQ((**r).f64(), d);
}

TEST(NumericTest, I64Arithmetic) {
  ModuleBuilder mb;
  FnBuilder& f = mb.add_function("f", {ValType::kI64, ValType::kI64},
                                 {ValType::kI64});
  f.local_get(0).local_get(1).i64_mul().end();
  auto m = decode_module(mb.build());
  ImportResolver empty;
  auto inst = Instance::instantiate(std::move(*m), empty);
  const Value args[] = {Value::from_i64(1ll << 40), Value::from_i64(3)};
  auto r = (*inst)->invoke("f", args);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ((**r).i64(), 3ll << 40);
}

TEST(NumericTest, RemainderSemantics) {
  // rem_s: sign follows the dividend; INT_MIN % -1 = 0 (no trap).
  ModuleBuilder mb;
  FnBuilder& f = mb.add_function("f", {ValType::kI32, ValType::kI32},
                                 {ValType::kI32});
  f.local_get(0).local_get(1).i32_rem_s().end();
  auto m = decode_module(mb.build());
  ImportResolver empty;
  auto inst = Instance::instantiate(std::move(*m), empty);
  auto run = [&](int32_t a, int32_t b) {
    const Value args[] = {Value::from_i32(a), Value::from_i32(b)};
    auto r = (*inst)->invoke("f", args);
    EXPECT_TRUE(r.is_ok()) << r.status().to_string();
    return (**r).i32();
  };
  EXPECT_EQ(run(7, 3), 1);
  EXPECT_EQ(run(-7, 3), -1);
  EXPECT_EQ(run(7, -3), 1);
  EXPECT_EQ(run(std::numeric_limits<int32_t>::min(), -1), 0);
}

}  // namespace
}  // namespace wasmctr::wasm
