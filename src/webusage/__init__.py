"""Request-time web usage collection with a classical-preprocessing twin.

The collector records sessions and pageviews as requests arrive, keyed by
client token; the baseline package half reconstructs the same facts from an
access log the traditional way so the two approaches can be compared on
simulator-labeled traffic.
"""
