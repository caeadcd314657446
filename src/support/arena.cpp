#include "support/arena.hpp"

#include <algorithm>
#include <cstring>

namespace parcfl::support {

void Arena::grow(std::size_t min_bytes) {
  const std::size_t bytes = std::max(block_bytes_, min_bytes);
  // Left uninitialised: every user constructs or copies into what it
  // allocates, and a zero-filled block would make all its pages resident
  // up front, however little of it a solver's slabs end up using.
  blocks_.push_back(std::make_unique_for_overwrite<std::byte[]>(bytes));
  current_ = blocks_.back().get();
  capacity_ = bytes;
  cursor_ = 0;
}

}  // namespace parcfl::support
