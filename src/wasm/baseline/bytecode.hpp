// Direct-threaded bytecode emitted by the baseline tier's singlepass
// compiler (DESIGN.md §13).
//
// Layout: a compiled module is exactly two caller-owned contiguous byte
// regions —
//   * the CODE region: every function's bytecode, concatenated;
//   * the METADATA region: a packed array of FuncMeta records, one per
//     function in the import-aware index space.
// Nothing in either region points into the source Module or the heap, so
// both regions are position-independent and can back a shared file
// mapping: their page counts flow into the memory model as real
// code-space pages (mem::NodeMemory shared-mapping registry).
//
// Encoding: one opcode byte followed by fixed-width little-endian
// immediates (u16 slot indexes, u32 code offsets / memory offsets, 4- or
// 8-byte constants). Where the wasm semantics already are
// position-independent the wasm byte value is reused verbatim (numerics
// 0x45..0xc4, loads/stores 0x28..0x3e with the align byte dropped,
// drop/select, memory.size/grow), so the executor's switch mirrors the
// interpreter's. Control flow is rewritten: every branch carries a fully
// pre-resolved 8-byte BranchRef (code offset, operand-stack reset slot,
// flags), so there is no label scanning and no control stack at run time.
//
// The operand stack is compiled away into frame slots: slot i < num_locals
// holds local i, and an operand at static stack height h lives in slot
// num_locals + h. A frame is a span of u64 slots inside one reusable
// arena owned by the Instance — zero per-op dynamic allocation.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace wasmctr::wasm::baseline {

/// Baseline opcode space. Values shared with wasm::Opcode keep identical
/// semantics; new control/superinstruction opcodes sit in byte ranges the
/// wasm MVP leaves unassigned (0x06-0x0a, 0x12-0x19, 0x1c-0x1f,
/// 0xc5-0xce, 0xf0+).
enum BOp : uint8_t {
  kBUnreachable = 0x00,
  kBNop = 0x01,

  // Structural fuel marker: charges 1 unit (the block/loop/end opcode the
  // interpreter would have executed at this position) and falls through.
  kBMark = 0x06,
  kBJump = 0x07,      // BranchRef
  kBBrIf = 0x08,      // BranchRef; branch when popped != 0
  kBBrIfNot = 0x09,   // BranchRef; branch when popped == 0 (wasm `if`)
  kBBrTable = 0x0a,   // u32 count, then count+1 BranchRefs

  kBReturn = 0x12,
  kBCall = 0x13,          // u32 function index (import-aware space)
  kBCallIndirect = 0x14,  // u32 type index

  kBLocalGet = 0x15,   // u16 slot
  kBLocalSet = 0x16,   // u16 slot
  kBLocalTee = 0x17,   // u16 slot
  kBGlobalGet = 0x18,  // u16 global index
  kBGlobalSet = 0x19,  // u16 global index

  kBDrop = 0x1a,    // = wasm
  kBSelect = 0x1b,  // = wasm

  kBConstI32 = 0x1c,  // 4-byte value
  kBConstI64 = 0x1d,  // 8-byte value
  kBConstF32 = 0x1e,  // 4-byte bit pattern
  kBConstF64 = 0x1f,  // 8-byte bit pattern

  // 0x28..0x3e: loads/stores, wasm byte values, immediate = u32 offset
  // (static align hint dropped). 0x3f/0x40: memory.size/grow, no
  // immediate. 0x45..0xc4: numeric ops, wasm byte values, no immediates.

  // 0xFC-prefixed wasm ops lowered to single bytes:
  kBTruncSatBase = 0xc5,  // +FcOpcode 0..7 (kBTruncSatBase+7 = 0xcc)
  kBMemoryCopy = 0xcd,
  kBMemoryFill = 0xce,

  // Superinstructions (weight = number of wasm ops fused; see
  // wasm/opcodes.hpp for the fuel-charging rule that keeps them
  // indistinguishable from the interpreted op sequence).
  kBGetGet = 0xf0,        // u16 a, u16 b        (local.get a; local.get b)
  kBGetGetAddI32 = 0xf1,  // u16 a, u16 b        (...; i32.add)
  kBConstStoreI32 = 0xf2, // i32 value, u32 off  (i32.const; i32.store)
  kBGetConstI32 = 0xf3,   // u16 a, i32 c        (local.get; i32.const)
  kBConstSetI32 = 0xf4,   // u16 a, i32 c        (i32.const; local.set)
  kBIncSetI32 = 0xf5,     // u16 a, i32 c  (local.get a; i32.const c;
                          //                i32.add; local.set a)
  kBIncTeeI32 = 0xf6,     // u16 a, i32 c  (same, local.tee a)
};

/// The baseline opcode a 0xFC saturating truncation (FcOpcode 0..7)
/// lowers to: the one definition of the encoding that the compiler emits
/// and the executor dispatches on.
constexpr uint8_t trunc_sat_op(uint32_t fc_sub) {
  return static_cast<uint8_t>(kBTruncSatBase + fc_sub);
}

/// Fuel weight of one baseline instruction = how many wasm opcodes the
/// interpreter would have charged for the same work.
inline uint32_t bop_weight(uint8_t op) {
  switch (op) {
    case kBGetGet:
    case kBConstStoreI32:
    case kBGetConstI32:
    case kBConstSetI32: return 2;
    case kBGetGetAddI32: return 3;
    case kBIncSetI32:
    case kBIncTeeI32: return 4;
    default: return 1;
  }
}

/// Pre-resolved branch: 8 bytes, fixed layout, patched in place by the
/// compiler's backpatcher.
struct BranchRef {
  uint32_t target = 0;      // code offset within the function
  uint16_t reset_slots = 0; // operand stack reset: sp := reset_slots
  uint8_t flags = 0;        // kBranchCarriesResult | kBranchIsReturn
  uint8_t pad = 0;
};
static_assert(sizeof(BranchRef) == 8);

inline constexpr uint8_t kBranchCarriesResult = 1;  // slot[reset] = top
inline constexpr uint8_t kBranchIsReturn = 2;       // function-level target

/// Per-function record in the metadata region. Packed POD — the region
/// is the serialized array itself.
struct FuncMeta {
  uint32_t code_begin = 0;  // offsets into the code region; begin == end
  uint32_t code_end = 0;    //   for imported (host) functions
  uint32_t type_index = 0;
  uint16_t num_params = 0;
  uint16_t num_locals = 0;   // params + declared locals
  uint16_t frame_slots = 0;  // num_locals + max operand height
  uint8_t result = 0;        // 0 = no result, else the ValType byte
  uint8_t has_ref_locals = 0;  // any funcref local => cold-path init
};
static_assert(sizeof(FuncMeta) == 20);

/// What the singlepass compiler measured while lowering — the quantities
/// the engine model consumes in place of calibrated constants.
struct CompileStats {
  uint64_t content_hash = 0;   // FNV-1a of the module bytes
  uint64_t wasm_bytes = 0;     // module size in
  uint64_t wasm_ops = 0;       // wasm opcodes decoded
  uint64_t bytecode_bytes = 0; // code region out
  uint64_t meta_bytes = 0;     // metadata region out
  uint64_t fused = 0;          // superinstructions emitted
};

/// A compiled module: the two regions plus the measurements. Immutable
/// after compilation; shared across every instance of the same module.
class CompiledModule {
 public:
  CompiledModule(std::vector<uint8_t> code, std::vector<uint8_t> meta,
                 uint32_t num_imported, CompileStats stats)
      : code_(std::move(code)),
        meta_(std::move(meta)),
        num_imported_(num_imported),
        stats_(stats) {
    stats_.bytecode_bytes = code_.size();
    stats_.meta_bytes = meta_.size();
  }

  [[nodiscard]] const uint8_t* code() const noexcept { return code_.data(); }
  [[nodiscard]] std::size_t code_size() const noexcept { return code_.size(); }
  [[nodiscard]] std::size_t meta_size() const noexcept { return meta_.size(); }
  [[nodiscard]] uint32_t num_funcs() const noexcept {
    return static_cast<uint32_t>(meta_.size() / sizeof(FuncMeta));
  }
  [[nodiscard]] uint32_t num_imported() const noexcept {
    return num_imported_;
  }
  /// Metadata for function `index` in the import-aware index space.
  [[nodiscard]] FuncMeta func_meta(uint32_t index) const {
    FuncMeta m;
    std::memcpy(&m, meta_.data() + index * sizeof(FuncMeta), sizeof(FuncMeta));
    return m;
  }
  [[nodiscard]] const CompileStats& stats() const noexcept { return stats_; }

  /// Region page counts, the memory-model currency (4 KiB pages).
  [[nodiscard]] uint32_t code_pages() const noexcept {
    return static_cast<uint32_t>((code_.size() + 4095) / 4096);
  }
  [[nodiscard]] uint32_t meta_pages() const noexcept {
    return static_cast<uint32_t>((meta_.size() + 4095) / 4096);
  }

 private:
  std::vector<uint8_t> code_;
  std::vector<uint8_t> meta_;
  uint32_t num_imported_;
  CompileStats stats_;
};

}  // namespace wasmctr::wasm::baseline
