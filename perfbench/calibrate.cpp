// lud-bench-calibrate: times two fixed loops shaped like lud-run's work.
//
//   lud-bench-calibrate
//
// Prints "<small_s> <large_s> <checksum>". Both loops dispatch a small
// register-machine program through a switch, like lud-run's engine, and read
// and write a hash map, like its interning. The small loop's map fits in the
// caches; the large loop first builds a map of a million entries, far larger
// than the caches, like the composed tier's Gcost. Neither links anything
// from src/, so no change to the repository can move them. run.py times them
// between tool jobs, and the quickest times of a run tell how fast the shared
// machine ran during it (see NOTES.md, "Reference speed").

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace {

struct Op {
  uint8_t code, a, b, c;
};

const Op kProgram[] = {{0, 1, 1, 2}, {1, 2, 1, 3}, {2, 3, 2, 4},
                       {3, 4, 3, 0}, {4, 5, 4, 1}, {5, 0, 5, 6},
                       {6, 6, 0, 7}, {7, 7, 6, 1}};

// Runs kProgram \p iters times over a map of \p keys entries, built first;
// returns the seconds taken and folds the registers into \p checksum.
double timeLoop(uint64_t keys, long iters, uint64_t &checksum) {
  auto start = std::chrono::steady_clock::now();
  std::unordered_map<uint64_t, uint64_t> table;
  table.reserve(keys);
  for (uint64_t k = 0; k < keys; ++k)
    table[k * 0x9E3779B97F4A7C15ull % keys] = k;
  uint64_t r[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (long i = 0; i < iters; ++i) {
    for (const Op &o : kProgram) {
      switch (o.code) {
      case 0: r[o.a] = r[o.b] + r[o.c]; break;
      case 1: r[o.a] = r[o.b] ^ (r[o.c] << 3); break;
      case 2: r[o.a] = r[o.b] * 0x9E3779B97F4A7C15ull; break;
      case 3: table[r[o.b] % keys] += r[o.c]; break;
      case 4: {
        auto it = table.find(r[o.b] % keys);
        r[o.a] = it == table.end() ? 1 : it->second;
        break;
      }
      case 5: r[o.a] = (r[o.b] & 1) ? r[o.a] + r[o.c] : r[o.a] - 1; break;
      case 6: r[o.a] = r[o.b] >> 7 | r[o.c] << 57; break;
      default: r[o.a] = r[o.b] - r[o.c]; break;
      }
    }
  }
  auto stop = std::chrono::steady_clock::now();
  checksum = checksum * 31 + (r[0] ^ r[7]);
  return std::chrono::duration<double>(stop - start).count();
}

} // namespace

int main(int argc, char **) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: lud-bench-calibrate\n");
    return 2;
  }
  uint64_t checksum = 0;
  double small = timeLoop(4096, 1500000, checksum);
  double large = timeLoop(1000000, 1000000, checksum);
  std::printf("%.9f %.9f %llu\n", small, large,
              static_cast<unsigned long long>(checksum));
  return 0;
}
