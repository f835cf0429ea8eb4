// Lock-order probe for the TSan build (-DTELEIOS_SANITIZE=thread).
//
// TSan's deadlock detector is the one run-time lock-order check: it must
// see every acquisition made through the teleios::Mutex / SharedMutex
// wrappers. This program takes two locks in both orders on purpose, one
// order per thread and never overlapping in time, so nothing can hang;
// ctest passes it only when TSan prints "lock-order-inversion". If the
// wrappers ever stop being visible to TSan, the report disappears and
// the probe fails.
//
//   lock_order_probe mutex    # two Mutexes through MutexLock, A->B, B->A
//   lock_order_probe shared   # a SharedMutex reader lock against a Mutex

#include <cstdio>
#include <string>
#include <thread>

#include "common/thread_annotations.h"

namespace {

teleios::Mutex first;
teleios::Mutex second;
teleios::SharedMutex table;

void MutexOrders() {
  std::thread([] {
    teleios::MutexLock a(first);
    teleios::MutexLock b(second);
  }).join();
  std::thread([] {
    teleios::MutexLock b(second);
    teleios::MutexLock a(first);
  }).join();
}

void ReaderAgainstMutex() {
  std::thread([] {
    teleios::ReaderMutexLock r(table);
    teleios::MutexLock m(first);
  }).join();
  std::thread([] {
    teleios::MutexLock m(first);
    teleios::ReaderMutexLock r(table);
  }).join();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "mutex") {
    MutexOrders();
  } else if (mode == "shared") {
    ReaderAgainstMutex();
  } else {
    std::fprintf(stderr, "usage: lock_order_probe mutex|shared\n");
    return 2;
  }
  return 0;
}
