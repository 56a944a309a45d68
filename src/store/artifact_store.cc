#include "store/artifact_store.hh"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "obs/trace.hh"
#include "pinball/pinball_io.hh"
#include "util/logging.hh"
#include "util/sha1.hh"

namespace looppoint {

namespace {

constexpr const char *kManifestMagic = "looppoint-store-v1";
constexpr const char *kObjectMagicBase = "looppoint-object-v";
constexpr int kObjectVersion = 2;

void
makeDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST)
        fatal("artifact store: cannot create directory '%s': %s",
              path.c_str(), std::strerror(errno));
}

/** `entry stage=<s> key=<k> hash=<h> bytes=<n>` (all space-free). */
std::optional<ArtifactStore::Entry>
parseManifestEntry(const std::string &payload)
{
    std::istringstream is(payload);
    std::string tag, stage, key, hash, bytes;
    if (!(is >> tag >> stage >> key >> hash >> bytes))
        return std::nullopt;
    std::string extra;
    if (is >> extra)
        return std::nullopt;
    auto strip = [](std::string &s, const char *prefix) {
        const size_t n = std::strlen(prefix);
        if (s.rfind(prefix, 0) != 0)
            return false;
        s.erase(0, n);
        return true;
    };
    if (tag != "entry" || !strip(stage, "stage=") ||
        !strip(key, "key=") || !strip(hash, "hash=") ||
        !strip(bytes, "bytes="))
        return std::nullopt;
    ArtifactStore::Entry e;
    e.stage = std::move(stage);
    e.key = std::move(key);
    e.hash = std::move(hash);
    if (std::sscanf(bytes.c_str(), "%" SCNu64, &e.bytes) != 1)
        return std::nullopt;
    if (e.hash.size() != 40)
        return std::nullopt;
    return e;
}

std::string
encodeManifestEntry(const ArtifactStore::Entry &e)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), " bytes=%" PRIu64, e.bytes);
    return "entry stage=" + e.stage + " key=" + e.key +
           " hash=" + e.hash + buf;
}

} // namespace

/** Exclusive advisory lock over the whole store for one operation. */
struct ArtifactStore::LockGuard
{
    explicit LockGuard(ArtifactStore &store) : s(store), guard(store.mu)
    {
        if (s.lockFd >= 0 && ::flock(s.lockFd, LOCK_EX) != 0)
            logError("artifact store: flock('%s/.lock') failed: %s",
                     s.rootDir.c_str(), std::strerror(errno));
    }

    ~LockGuard()
    {
        if (s.lockFd >= 0)
            ::flock(s.lockFd, LOCK_UN);
    }

    ArtifactStore &s;
    std::lock_guard<std::mutex> guard;
};

ArtifactStore::ArtifactStore(std::string dir)
    : rootDir(std::move(dir)),
      manifestLog(rootDir + "/manifest", {kManifestMagic},
                  "store manifest")
{
    if (rootDir.empty())
        fatal("artifact store: empty directory path");
    makeDir(rootDir);
    makeDir(rootDir + "/objects");
    lockFd = ::open((rootDir + "/.lock").c_str(),
                    O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (lockFd < 0)
        fatal("artifact store: cannot open '%s/.lock': %s",
              rootDir.c_str(), std::strerror(errno));
}

ArtifactStore::~ArtifactStore()
{
    if (lockFd >= 0)
        ::close(lockFd);
}

std::string
ArtifactStore::objectPath(const std::string &hash) const
{
    return rootDir + "/objects/" + hash;
}

std::optional<ArtifactStore::FileStamp>
ArtifactStore::manifestStamp() const
{
    struct stat st{};
    if (::stat(manifestLog.path().c_str(), &st) != 0)
        return std::nullopt;
    return FileStamp{st.st_dev, st.st_ino, st.st_size,
                     st.st_mtim.tv_sec, st.st_mtim.tv_nsec};
}

void
ArtifactStore::reloadManifestLocked()
{
    // Every append grows the file and every rewrite renames a new
    // file into place, so an unchanged stamp means the map already
    // holds what is on disk.
    const auto stamp = manifestStamp();
    if (stamp && stamp == parsedStamp)
        return;
    manifest.clear();
    auto err = manifestLog.open(false, [&](const std::string &payload) {
        auto entry = parseManifestEntry(payload);
        if (!entry)
            return false;
        // A key bound twice: the later line is the later publish.
        auto key = std::make_pair(entry->stage, entry->key);
        manifest[std::move(key)] = std::move(*entry);
        return true;
    });
    if (err)
        logError("artifact store: %s; ignoring it",
                 err->describe().c_str());
    parsedStamp = stamp;
}

bool
ArtifactStore::rewriteManifestLocked()
{
    std::vector<std::string> lines;
    lines.reserve(manifest.size());
    for (const auto &[k, e] : manifest)
        lines.push_back(encodeManifestEntry(e));
    const bool ok = manifestLog.rewrite(lines);
    parsedStamp = ok ? manifestStamp() : std::nullopt;
    return ok;
}

void
ArtifactStore::countHit(uint64_t payload_bytes)
{
    nHits.fetch_add(1, std::memory_order_relaxed);
    nBytesRead.fetch_add(payload_bytes, std::memory_order_relaxed);
}

void
ArtifactStore::countMiss()
{
    nMisses.fetch_add(1, std::memory_order_relaxed);
}

std::optional<ArtifactStore::Hit>
ArtifactStore::lookup(const std::string &stage, const std::string &key)
{
    ScopedSpan span(Tracer::global(), "store.lookup");
    span.arg("stage", stage);

    // Only the manifest lookup and the open happen under the lock.
    // Reading, the frame CRC and the SHA-1 run after it is released,
    // so concurrent lookups (one per region on the warm path) do not
    // serialize on multi-MB hashing. An open descriptor keeps reading
    // the same inode even if a concurrent gc unlinks the object or a
    // publish renames a fresh copy over it.
    std::string hash, path;
    std::ifstream is;
    {
        LockGuard lock(*this);
        reloadManifestLocked();
        auto it = manifest.find(std::make_pair(stage, key));
        if (it == manifest.end()) {
            countMiss();
            span.arg("outcome", "miss");
            return std::nullopt;
        }
        hash = it->second.hash;
        path = objectPath(hash);
        is.open(path, std::ios::binary);
        if (!is) {
            // Object vanished (e.g. a concurrent gc): plain miss.
            countMiss();
            span.arg("outcome", "gone");
            return std::nullopt;
        }
        // Touch the LRU clock: gc evicts oldest-mtime first.
        struct timespec times[2];
        times[0].tv_nsec = UTIME_NOW;
        times[0].tv_sec = 0;
        times[1].tv_nsec = UTIME_NOW;
        times[1].tv_sec = 0;
        ::utimensat(AT_FDCWD, path.c_str(), times, 0);
    }

    auto evict = [&](const char *why) {
        // Corrupt object: count, evict every binding to it, unlink,
        // and report a miss so the caller recomputes + republishes.
        logError("artifact store: evicting corrupt object %s (%s)",
                 hash.c_str(), why);
        nCorrupt.fetch_add(1, std::memory_order_relaxed);
        LockGuard lock(*this);
        reloadManifestLocked();
        ::unlink(path.c_str());
        std::erase_if(manifest, [&](const auto &kv) {
            return kv.second.hash == hash;
        });
        rewriteManifestLocked();
        countMiss();
        span.arg("outcome", "corrupt");
    };

    auto framed = readFramedArtifact(is, kObjectMagicBase,
                                     kObjectVersion);
    if (!framed.ok()) {
        evict(framed.error().describe().c_str());
        return std::nullopt;
    }
    std::string payload = std::move(framed.value().payload);
    if (sha1Hex(payload) != hash) {
        // The frame CRC passed but the content is not what the address
        // claims — a mis-filed or tampered object.
        evict("content hash mismatch");
        return std::nullopt;
    }

    countHit(payload.size());
    span.arg("outcome", "hit")
        .arg("bytes", static_cast<uint64_t>(payload.size()));
    return Hit{std::move(payload), hash};
}

std::string
ArtifactStore::publish(const std::string &stage, const std::string &key,
                       const std::string &payload)
{
    ScopedSpan span(Tracer::global(), "store.publish");
    span.arg("stage", stage)
        .arg("bytes", static_cast<uint64_t>(payload.size()));

    const std::string hash = sha1Hex(payload);
    LockGuard lock(*this);
    reloadManifestLocked();

    const std::string path = objectPath(hash);
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0) {
        nBytesDeduped.fetch_add(payload.size(),
                                std::memory_order_relaxed);
    } else {
        // A failed publish is a cache miss, not a run failure: the
        // caller already holds the computed artifact, so an ENOSPC or
        // short write here must never abort the run. Clean up the tmp
        // file, count the failure, and return without binding the
        // manifest — the next run recomputes and tries again.
        char suffix[48];
        std::snprintf(suffix, sizeof(suffix), ".tmp.%ld",
                      static_cast<long>(::getpid()));
        const std::string tmp = path + suffix;
        uint64_t framed_bytes = 0;
        bool wrote = false;
        {
            std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
            if (!os) {
                logError("artifact store: cannot write '%s': %s "
                         "(publish skipped)",
                         tmp.c_str(), std::strerror(errno));
            } else {
                writeFramedArtifact(os, kObjectMagicBase,
                                    kObjectVersion, payload);
                os.flush();
                if (!os) {
                    logError("artifact store: short write to '%s' "
                             "(publish skipped)", tmp.c_str());
                } else {
                    framed_bytes = static_cast<uint64_t>(os.tellp());
                    wrote = true;
                }
            }
        }
        if (wrote && std::rename(tmp.c_str(), path.c_str()) != 0) {
            logError("artifact store: cannot publish '%s': %s "
                     "(publish skipped)",
                     path.c_str(), std::strerror(errno));
            wrote = false;
        }
        if (!wrote) {
            ::unlink(tmp.c_str());
            nFailedPublishes.fetch_add(1, std::memory_order_relaxed);
            span.arg("outcome", "publish-failed");
            return hash;
        }
        nBytesStored.fetch_add(framed_bytes,
                               std::memory_order_relaxed);
    }

    Entry e;
    e.stage = stage;
    e.key = key;
    e.hash = hash;
    e.bytes = payload.size();
    auto map_key = std::make_pair(stage, key);
    auto it = manifest.find(map_key);
    if (it == manifest.end() || it->second.hash != hash ||
        it->second.bytes != e.bytes) {
        const bool appended = manifestLog.append(encodeManifestEntry(e));
        if (!appended)
            logError("artifact store: cannot append to manifest '%s'",
                     manifestLog.path().c_str());
        manifest[std::move(map_key)] = std::move(e);
        // A failed append leaves the map ahead of the file: re-read it.
        parsedStamp = appended ? manifestStamp() : std::nullopt;
    }

    nPublishes.fetch_add(1, std::memory_order_relaxed);
    return hash;
}

std::optional<std::string>
ArtifactStore::hashFor(const std::string &stage, const std::string &key)
{
    LockGuard lock(*this);
    reloadManifestLocked();
    auto it = manifest.find(std::make_pair(stage, key));
    if (it == manifest.end())
        return std::nullopt;
    return it->second.hash;
}

std::vector<ArtifactStore::Entry>
ArtifactStore::entries()
{
    LockGuard lock(*this);
    reloadManifestLocked();
    std::vector<Entry> out;
    out.reserve(manifest.size());
    for (const auto &[k, e] : manifest)
        out.push_back(e);
    return out;
}

ArtifactStore::GcResult
ArtifactStore::gc(uint64_t max_bytes, bool dry_run)
{
    LockGuard lock(*this);
    reloadManifestLocked();

    struct Object
    {
        std::string hash;
        uint64_t bytes = 0;
        time_t mtime = 0;
        bool referenced = false;
    };
    std::vector<Object> objects;
    const std::string obj_dir = rootDir + "/objects";
    if (DIR *d = ::opendir(obj_dir.c_str())) {
        while (struct dirent *ent = ::readdir(d)) {
            std::string name = ent->d_name;
            if (name == "." || name == "..")
                continue;
            if (name.find(".tmp.") != std::string::npos) {
                // Orphaned temp file from a crashed publish.
                ::unlink((obj_dir + "/" + name).c_str());
                continue;
            }
            struct stat st{};
            if (::stat((obj_dir + "/" + name).c_str(), &st) != 0)
                continue;
            Object o;
            o.hash = name;
            o.bytes = static_cast<uint64_t>(st.st_size);
            o.mtime = st.st_mtime;
            objects.push_back(std::move(o));
        }
        ::closedir(d);
    }
    for (auto &o : objects) {
        for (const auto &[k, e] : manifest) {
            if (e.hash == o.hash) {
                o.referenced = true;
                break;
            }
        }
    }

    // LRU: evict oldest first; unreferenced objects go before
    // referenced ones of the same age.
    std::sort(objects.begin(), objects.end(),
              [](const Object &a, const Object &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  if (a.referenced != b.referenced)
                      return !a.referenced;
                  return a.hash < b.hash;
              });

    uint64_t total = 0;
    for (const auto &o : objects)
        total += o.bytes;

    GcResult res;
    for (const auto &o : objects) {
        if (total <= max_bytes && o.referenced) {
            ++res.keptObjects;
            res.keptBytes += o.bytes;
            continue;
        }
        ++res.removedObjects;
        res.removedBytes += o.bytes;
        total -= o.bytes;
        auto bound = [&](const auto &kv) {
            return kv.second.hash == o.hash;
        };
        if (dry_run) {
            res.droppedEntries +=
                std::count_if(manifest.begin(), manifest.end(), bound);
        } else {
            ::unlink((obj_dir + "/" + o.hash).c_str());
            res.droppedEntries += std::erase_if(manifest, bound);
        }
    }
    // Compact: one line per live binding (drops rebound keys' older
    // lines and any torn tail).
    if (!dry_run)
        rewriteManifestLocked();
    return res;
}

size_t
ArtifactStore::verify(
    const std::function<void(const Entry &, const std::string &)> &visit)
{
    LockGuard lock(*this);
    reloadManifestLocked();
    size_t bad = 0;
    for (const auto &[k, e] : manifest) {
        std::ifstream is(objectPath(e.hash), std::ios::binary);
        if (!is) {
            ++bad;
            continue;
        }
        auto framed = readFramedArtifact(is, kObjectMagicBase,
                                         kObjectVersion);
        if (!framed.ok() || sha1Hex(framed.value().payload) != e.hash)
            ++bad;
        else if (visit)
            visit(e, framed.value().payload);
    }
    return bad;
}

StoreStats
ArtifactStore::stats() const
{
    StoreStats s;
    s.hits = nHits.load(std::memory_order_relaxed);
    s.misses = nMisses.load(std::memory_order_relaxed);
    s.publishes = nPublishes.load(std::memory_order_relaxed);
    s.corruptEntries = nCorrupt.load(std::memory_order_relaxed);
    s.failedPublishes =
        nFailedPublishes.load(std::memory_order_relaxed);
    s.bytesStored = nBytesStored.load(std::memory_order_relaxed);
    s.bytesDeduped = nBytesDeduped.load(std::memory_order_relaxed);
    s.bytesRead = nBytesRead.load(std::memory_order_relaxed);
    return s;
}

} // namespace looppoint
