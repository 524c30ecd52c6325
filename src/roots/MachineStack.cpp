//===- roots/MachineStack.cpp - Real machine-stack scanning ---------------===//

#include "roots/MachineStack.h"
#include <cstring>

using namespace cgc;

void MachineStack::clearDeadStack(uint32_t ChunkBytes) {
  // Every live byte of the callers lies above this function's frame.
  const char *Sp = static_cast<const char *>(__builtin_frame_address(0));
  // Leave a guard region below the current frame untouched: the calls
  // we are about to make (memset) need headroom, and a signal handler
  // could in principle run there.
  constexpr size_t GuardBytes = 4096;
  const char *ClearHigh = Sp - GuardBytes;
  const char *ClearLow = static_cast<const char *>(DeepestSeen);
  if (ClearLow + ChunkBytes < ClearHigh)
    ClearLow = ClearHigh - ChunkBytes;
  if (ClearLow >= ClearHigh)
    return;
  std::memset(const_cast<char *>(ClearLow), 0,
              static_cast<size_t>(ClearHigh - ClearLow));
}
