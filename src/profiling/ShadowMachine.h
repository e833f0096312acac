//===- profiling/ShadowMachine.h - Shared shadow environments --*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shadow-location machinery every abstract-slicing profiler needs
/// (Figure 4's environments, minus the graph): per-register shadows with a
/// call stack, per-object per-slot heap shadows, per-global static shadows,
/// and the in-flight return shadow. SlicingProfiler, CopyProfiler and
/// NullnessProfiler each instantiate their own and keep only their domain
/// logic; a session runs the substrate's and the clients' in separate
/// executions on separate threads.
/// Registers and heap/static slots may hold different types: the substrate
/// keeps a bare writer node per register but packs a read/overwrite state
/// next to the writer in every slot.
///
/// The register stack is a depth-indexed stack over a reused frame pool:
/// returning pops the logical depth but keeps the frame vector's buffer, so
/// a call re-entering that depth assigns in place instead of mallocing a
/// fresh frame (calls are the second-hottest event after loads). Inner
/// buffers stay put when the outer pool grows because vector moves steal
/// them, so the cached current-frame pointer stays valid across pushes.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_PROFILING_SHADOWMACHINE_H
#define LUD_PROFILING_SHADOWMACHINE_H

#include "ir/Instruction.h"
#include "runtime/Heap.h"

#include <algorithm>
#include <vector>

namespace lud {

class Function;

template <typename RegT, typename SlotT = RegT> class ShadowMachine {
public:
  /// \p NullR and \p NullS are what a register and a heap or static slot
  /// hold before anything is written to them.
  explicit ShadowMachine(RegT NullR = RegT(), SlotT NullS = SlotT())
      : Pending(NullR), NullReg(NullR), NullSlot(NullS) {}

  /// Binds the run's heap and resets the heap, static and return shadows
  /// (onRunStart).
  void startRun(Heap &Heap_, size_t NumGlobals) {
    H = &Heap_;
    Statics.assign(NumGlobals, NullSlot);
    Objects.clear();
    Pending = NullReg;
  }

  /// Resets the register stack to one frame for the entry function
  /// (onEntryFrame).
  void enterEntry(uint32_t NumRegs) {
    if (Frames.empty())
      Frames.emplace_back();
    Frames[0].assign(NumRegs, NullReg);
    Depth = 1;
    CurRegs = Frames[0].data();
  }

  /// Current frame's register shadows.
  RegT *regs() { return CurRegs; }
  const RegT *regs() const { return CurRegs; }

  /// Pushes the callee frame, copying the actuals' shadows into the leading
  /// parameter registers and nulling the rest (onCallEnter: fires while the
  /// caller frame is still current).
  void pushFrame(const CallInst &I, uint32_t CalleeRegs) {
    if (Frames.size() <= Depth)
      Frames.emplace_back();
    std::vector<RegT> &Callee = Frames[Depth];
    Callee.resize(CalleeRegs);
    const RegT *Caller = CurRegs;
    size_t NumArgs = I.Args.size();
    for (size_t A = 0; A != NumArgs; ++A)
      Callee[A] = Caller[I.Args[A]];
    // Only the non-parameter registers need clearing; the first NumArgs
    // were just overwritten with the actuals' shadows.
    std::fill(Callee.begin() + NumArgs, Callee.end(), NullReg);
    ++Depth;
    CurRegs = Callee.data();
  }

  /// Pops back to the caller frame (onReturn). The entry frame stays;
  /// returns whether a frame was popped.
  bool popFrame() {
    if (Depth <= 1)
      return false;
    --Depth;
    CurRegs = Frames[Depth - 1].data();
    return true;
  }

  SlotT &staticAt(GlobalId G) { return Statics[G]; }

  /// Per-slot shadows of object \p O, grown on demand to the object's slot
  /// count (arrays included).
  std::vector<SlotT> &objShadow(ObjId O) {
    if (Objects.size() <= O)
      Objects.resize(H->idBound());
    std::vector<SlotT> &S = Objects[O];
    size_t Need = H->obj(O).Slots.size();
    if (S.size() < Need)
      S.resize(Need, NullSlot);
    return S;
  }

  /// Object shadows indexed by ObjId; objects no event touched are empty.
  const std::vector<std::vector<SlotT>> &objects() const { return Objects; }

  /// Retained bytes of the object shadows, the register-frame pool and the
  /// static shadows (the `mem.shadow.*` gauges).
  size_t heapBytes() const { return poolBytes(Objects); }
  size_t regBytes() const { return poolBytes(Frames); }
  size_t staticBytes() const { return Statics.capacity() * sizeof(SlotT); }

  /// The return value's shadow, in flight between onReturn (callee side)
  /// and onReturnBound (caller side).
  RegT Pending;

private:
  template <typename T>
  static size_t poolBytes(const std::vector<std::vector<T>> &Pool) {
    size_t Bytes = Pool.capacity() * sizeof(std::vector<T>);
    for (const std::vector<T> &V : Pool)
      Bytes += V.capacity() * sizeof(T);
    return Bytes;
  }

  RegT NullReg;
  SlotT NullSlot;
  Heap *H = nullptr;
  std::vector<std::vector<RegT>> Frames;
  size_t Depth = 0;
  RegT *CurRegs = nullptr;
  std::vector<std::vector<SlotT>> Objects;
  std::vector<SlotT> Statics;
};

} // namespace lud

#endif // LUD_PROFILING_SHADOWMACHINE_H
