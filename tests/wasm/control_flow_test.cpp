// Control-flow torture tests: deep nesting, loop/branch interactions, and
// an i64 property sweep against a host reference.
#include <gtest/gtest.h>

#include "support/rng.hpp"
#include "wasm/builder.hpp"
#include "wasm/decoder.hpp"
#include "wasm/exec/instance.hpp"
#include "wasm/opcodes.hpp"
#include "wasm/validator.hpp"

namespace wasmctr::wasm {
namespace {

std::unique_ptr<Instance> build(ModuleBuilder& b) {
  auto m = decode_module(b.build());
  EXPECT_TRUE(m.is_ok()) << m.status().to_string();
  EXPECT_TRUE(validate_module(*m).is_ok()) << validate_module(*m).to_string();
  ImportResolver empty;
  auto inst = Instance::instantiate(std::move(*m), empty);
  EXPECT_TRUE(inst.is_ok()) << inst.status().to_string();
  return std::move(*inst);
}

int32_t call1(Instance& inst, const char* name, int32_t arg) {
  const Value v = Value::from_i32(arg);
  auto r = inst.invoke(name, std::span<const Value>(&v, 1));
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return (**r).i32();
}

TEST(ControlFlowTest, DeeplyNestedBlocksBranchOut) {
  // 64 nested blocks; br to depth 63 jumps all the way out.
  ModuleBuilder b;
  FnBuilder& f = b.add_function("f", {}, {ValType::kI32});
  for (int i = 0; i < 64; ++i) f.block();
  f.br(63);
  for (int i = 0; i < 64; ++i) f.end();
  f.i32_const(77);
  f.end();
  auto inst = build(b);
  auto r = inst->invoke("f");
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ((**r).i32(), 77);
}

TEST(ControlFlowTest, NestedLoopsComputeProduct) {
  // for i in 0..n: for j in 0..n: acc++  → n*n
  ModuleBuilder b;
  FnBuilder& f = b.add_function("f", {ValType::kI32}, {ValType::kI32});
  const uint32_t i = f.add_local(ValType::kI32);
  const uint32_t j = f.add_local(ValType::kI32);
  const uint32_t acc = f.add_local(ValType::kI32);
  f.block();
  f.loop();
  {
    f.local_get(i).local_get(0).i32_ge_s().br_if(1);
    f.i32_const(0).local_set(j);
    f.block();
    f.loop();
    {
      f.local_get(j).local_get(0).i32_ge_s().br_if(1);
      f.local_get(acc).i32_const(1).i32_add().local_set(acc);
      f.local_get(j).i32_const(1).i32_add().local_set(j);
      f.br(0);
    }
    f.end();
    f.end();
    f.local_get(i).i32_const(1).i32_add().local_set(i);
    f.br(0);
  }
  f.end();
  f.end();
  f.local_get(acc);
  f.end();
  auto inst = build(b);
  EXPECT_EQ(call1(*inst, "f", 5), 25);
  EXPECT_EQ(call1(*inst, "f", 13), 169);
  EXPECT_EQ(call1(*inst, "f", 0), 0);
}

TEST(ControlFlowTest, BreakOutOfInnerLoopOnly) {
  // Outer loop runs n times; inner loop breaks at 3 each time → acc = 3n.
  ModuleBuilder b;
  FnBuilder& f = b.add_function("f", {ValType::kI32}, {ValType::kI32});
  const uint32_t i = f.add_local(ValType::kI32);
  const uint32_t j = f.add_local(ValType::kI32);
  const uint32_t acc = f.add_local(ValType::kI32);
  f.block();
  f.loop();
  {
    f.local_get(i).local_get(0).i32_ge_s().br_if(1);
    f.i32_const(0).local_set(j);
    f.block();  // inner break target
    f.loop();
    {
      f.local_get(j).i32_const(3).i32_ge_s().br_if(1);  // break inner
      f.local_get(acc).i32_const(1).i32_add().local_set(acc);
      f.local_get(j).i32_const(1).i32_add().local_set(j);
      f.br(0);
    }
    f.end();
    f.end();
    f.local_get(i).i32_const(1).i32_add().local_set(i);
    f.br(0);
  }
  f.end();
  f.end();
  f.local_get(acc);
  f.end();
  auto inst = build(b);
  EXPECT_EQ(call1(*inst, "f", 4), 12);
}

TEST(ControlFlowTest, NestedIfElseLadder) {
  // Classify: x<0 → -1; x==0 → 0; x<10 → 1; else 2.
  ModuleBuilder b;
  FnBuilder& f = b.add_function("f", {ValType::kI32}, {ValType::kI32});
  f.local_get(0).i32_const(0).i32_lt_s();
  f.if_(ValType::kI32);
  f.i32_const(-1);
  f.else_();
  {
    f.local_get(0).i32_eqz();
    f.if_(ValType::kI32);
    f.i32_const(0);
    f.else_();
    {
      f.local_get(0).i32_const(10).i32_lt_s();
      f.if_(ValType::kI32);
      f.i32_const(1);
      f.else_();
      f.i32_const(2);
      f.end();
    }
    f.end();
  }
  f.end();
  f.end();
  auto inst = build(b);
  EXPECT_EQ(call1(*inst, "f", -7), -1);
  EXPECT_EQ(call1(*inst, "f", 0), 0);
  EXPECT_EQ(call1(*inst, "f", 5), 1);
  EXPECT_EQ(call1(*inst, "f", 99), 2);
}

TEST(ControlFlowTest, BrTableInLoopStateMachine) {
  // A 3-state machine driven by br_table; counts transitions until state 2.
  // state 0 -> 1 -> 2. f(start) returns steps taken.
  ModuleBuilder b;
  FnBuilder& f = b.add_function("f", {ValType::kI32}, {ValType::kI32});
  const uint32_t state = f.add_local(ValType::kI32);
  const uint32_t steps = f.add_local(ValType::kI32);
  f.local_get(0).local_set(state);
  f.block();  // exit
  f.loop();
  {
    f.block();
    f.block();
    f.block();
    f.local_get(state).br_table({0, 1}, 2);
    f.end();  // state 0 (nesting here: exit, loop, A, B)
    f.i32_const(1).local_set(state);
    f.local_get(steps).i32_const(1).i32_add().local_set(steps);
    f.br(2);  // continue loop
    f.end();  // state 1 (nesting: exit, loop, A)
    f.i32_const(2).local_set(state);
    f.local_get(steps).i32_const(1).i32_add().local_set(steps);
    f.br(1);  // continue loop
    f.end();  // state 2 / default (nesting: exit, loop)
    f.br(1);  // exit
  }
  f.end();
  f.end();
  f.local_get(steps);
  f.end();
  auto inst = build(b);
  EXPECT_EQ(call1(*inst, "f", 0), 2);
  EXPECT_EQ(call1(*inst, "f", 1), 1);
  EXPECT_EQ(call1(*inst, "f", 2), 0);
}

// ---- i64 property sweep against host arithmetic ----

struct I64Case {
  const char* name;
  uint8_t opcode;
  uint64_t (*reference)(uint64_t, uint64_t);
};

// Stable ctest names: print the case by its name, not its pointer bytes.
void PrintTo(const I64Case& c, std::ostream* os) { *os << c.name; }

uint64_t r_add(uint64_t a, uint64_t b) { return a + b; }
uint64_t r_sub(uint64_t a, uint64_t b) { return a - b; }
uint64_t r_mul(uint64_t a, uint64_t b) { return a * b; }
uint64_t r_xor(uint64_t a, uint64_t b) { return a ^ b; }
uint64_t r_shl(uint64_t a, uint64_t b) { return a << (b & 63); }
uint64_t r_shr(uint64_t a, uint64_t b) { return a >> (b & 63); }
uint64_t r_lts(uint64_t a, uint64_t b) {
  return static_cast<int64_t>(a) < static_cast<int64_t>(b) ? 1 : 0;
}

class I64Sweep : public ::testing::TestWithParam<I64Case> {};

TEST_P(I64Sweep, RandomizedAgainstReference) {
  const I64Case& c = GetParam();
  ModuleBuilder b;
  FnBuilder& f = b.add_function("f", {ValType::kI64, ValType::kI64},
                                {c.opcode == kI64LtS ? ValType::kI32
                                                     : ValType::kI64});
  f.local_get(0).local_get(1).op(c.opcode).end();
  auto inst = build(b);
  Rng rng(0xfeed);
  for (int i = 0; i < 500; ++i) {
    const uint64_t a = rng.next_u64();
    const uint64_t v = rng.next_u64();
    const Value args[] = {Value::from_u64(a), Value::from_u64(v)};
    auto r = inst->invoke("f", args);
    ASSERT_TRUE(r.is_ok());
    const uint64_t got = c.opcode == kI64LtS
                             ? (**r).u32()
                             : (**r).u64();
    ASSERT_EQ(got, c.reference(a, v)) << c.name << "(" << a << "," << v << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, I64Sweep,
    ::testing::Values(I64Case{"add", kI64Add, r_add},
                      I64Case{"sub", kI64Sub, r_sub},
                      I64Case{"mul", kI64Mul, r_mul},
                      I64Case{"xor", kI64Xor, r_xor},
                      I64Case{"shl", kI64Shl, r_shl},
                      I64Case{"shr_u", kI64ShrU, r_shr},
                      I64Case{"lt_s", kI64LtS, r_lts}),
    [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace wasmctr::wasm
